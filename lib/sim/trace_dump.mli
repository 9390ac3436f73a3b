(** Dump an evaluation trace to a VCD file.

    Widths are derived from the first entry: booleans become 1-bit
    wires, integers [width]-bit vectors (default 62, the portable
    OCaml [int] payload).  The signal set is taken from the first
    entry, so a recorded trace (every sample of one run shares one
    environment shape; see [Tabv_trace.Writer]) dumps completely. *)

(** [to_string ?width trace] — the VCD text. *)
val to_string : ?width:int -> Tabv_psl.Trace.t -> string

(** [to_file ?width trace path] creates/overwrites [path]. *)
val to_file : ?width:int -> Tabv_psl.Trace.t -> string -> unit
