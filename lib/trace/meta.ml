type t = { model : string; seed : int; ops : int; engine : string }

let make ~model ~seed ~ops = { model; seed; ops; engine = "classic" }

let equal a b = a = b

(* Version-prefixed so a format bump invalidates stored fingerprints
   along with the files themselves. *)
let fingerprint t =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "tabv-trace-v1\x00%s\x00%d\x00%d\x00%s" t.model t.seed
          t.ops t.engine))

let pp ppf t =
  Format.fprintf ppf "%s seed=%d ops=%d engine=%s (fingerprint %s)" t.model
    t.seed t.ops t.engine (fingerprint t)
