type t = {
  name : string;
  formula : Ltl.t;
  context : Context.t;
}

let make ~name ?(context = Context.Clock Context.Base_clock) formula =
  { name; formula; context }

let equal a b =
  String.equal a.name b.name
  && Ltl.equal a.formula b.formula
  && Context.equal a.context b.context

let signals t =
  List.sort_uniq String.compare
    (Ltl.signals t.formula @ Context.signals t.context)

let unknown_signals ~known t =
  List.filter (fun s -> not (List.mem s known)) (signals t)

let missing_signals ~known properties =
  List.sort_uniq String.compare
    (List.concat_map (unknown_signals ~known) properties)

let is_rtl t =
  match t.context with
  | Context.Clock _ -> true
  | Context.Transaction _ -> false

let is_tlm t = not (is_rtl t)

let pp ppf t =
  Format.fprintf ppf "%s: %a %a" t.name Ltl.pp t.formula Context.pp t.context

let to_string t = Format.asprintf "%a" pp t
