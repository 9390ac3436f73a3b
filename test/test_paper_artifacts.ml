open Tabv_psl
open Tabv_core
open Tabv_checker

(* Direct reconstructions of the paper's remaining artefacts:
   Theorem III.1's statement and the Fig. 5 wrapper timeline. *)

let case name f = Alcotest.test_case name `Quick f

(* --- Theorem III.1: until/release-only properties need no formula
   transformation, only the context mapping --- *)

let gen_until_release_only =
  let open QCheck.Gen in
  sized_size (int_bound 4) @@ fix (fun self n ->
    let atom =
      oneof
        [ map (fun v -> Ltl.Atom (Expr.Var v)) (oneofl Helpers.bool_signals);
          map (fun v -> Ltl.Not (Ltl.Atom (Expr.Var v))) (oneofl Helpers.bool_signals) ]
    in
    if n = 0 then atom
    else
      let sub = self (n / 2) in
      oneof
        [ atom;
          map2 (fun p q -> Ltl.And (p, q)) sub sub;
          map2 (fun p q -> Ltl.Or (p, q)) sub sub;
          map2 (fun p q -> Ltl.Until (p, q)) sub sub;
          map2 (fun p q -> Ltl.Release (p, q)) sub sub;
          map (fun p -> Ltl.Always p) (self (n - 1));
          map (fun p -> Ltl.Eventually p) (self (n - 1)) ])

let theorem_iii1_cases =
  [ Helpers.qtest ~count:300 "theorem III.1: no-next properties pass through unchanged"
      (QCheck.make ~print:Ltl.to_string gen_until_release_only)
      (fun f ->
        let p =
          Property.make ~name:"p" ~context:(Context.Clock (Context.Edge Context.Posedge)) f
        in
        let report = Methodology.abstract ~clock_period:10 p in
        match report.Methodology.output with
        | Some q ->
          Ltl.equal (Ltl.demote_booleans f) (Ltl.demote_booleans q.Property.formula)
          && q.Property.context = Context.Transaction Context.Base_trans
          && report.Methodology.substitutions = []
        | None -> false) ]

(* --- Fig. 5: evolution of the wrapper for q3 --- *)

let fig5_cases =
  [ case "Fig. 5 timeline: failure at 350 ns for the instance fired at 170 ns"
      (fun () ->
        (* q3's checker, driven by the transaction instants sketched in
           Fig. 5: instances fire at each transaction; the instance
           fired at 170 ns (ds high) expects its evaluation point at
           340 ns, but the next transaction only arrives at 350 ns. *)
        let q3 =
          Parser.property_exn ~name:"q3" "always (!ds || nexte[1,170](rdy)) @tb"
        in
        let monitor = Helpers.monitor q3 in
        let env ~ds ~rdy =
          fun name ->
            match name with
            | "ds" -> Some (Expr.VBool ds)
            | "rdy" -> Some (Expr.VBool rdy)
            | _ -> None
        in
        (* C[0] fires at 0 ns and completes successfully at 170 ns. *)
        Helpers.monitor_step monitor ~time:0 (env ~ds:true ~rdy:false);
        Helpers.monitor_step monitor ~time:40 (env ~ds:false ~rdy:false);
        Helpers.monitor_step monitor ~time:170 (env ~ds:true ~rdy:true);
        (* passes = C[0] plus the trivially-true instance of 40 ns. *)
        Alcotest.(check int) "C[0] completed" 2 (Monitor.passes monitor);
        Alcotest.(check (list int)) "no failures yet" []
          (List.map (fun f -> f.Monitor.failure_time) (Monitor.failures monitor));
        (* The instance fired at 170 ns expects 340 ns... *)
        Helpers.monitor_step monitor ~time:250 (env ~ds:false ~rdy:false);
        Alcotest.(check int) "still pending" 1 (Monitor.pending monitor);
        (* ...but the next transaction arrives at 350 ns. *)
        Helpers.monitor_step monitor ~time:350 (env ~ds:false ~rdy:true);
        (match Monitor.failures monitor with
         | [ f ] ->
           Alcotest.(check int) "fired at" 170 f.Monitor.activation_time;
           Alcotest.(check int) "failure raised at" 350 f.Monitor.failure_time
         | other -> Alcotest.failf "expected exactly one failure, got %d"
                      (List.length other)));
    case "Fig. 5 happy path: every expected instant served" (fun () ->
      let q3 =
        Parser.property_exn ~name:"q3" "always (!ds || nexte[1,170](rdy)) @tb"
      in
      let monitor = Helpers.monitor q3 in
      let env ~ds ~rdy =
        fun name ->
          match name with
          | "ds" -> Some (Expr.VBool ds)
          | "rdy" -> Some (Expr.VBool rdy)
          | _ -> None
      in
      Helpers.monitor_step monitor ~time:0 (env ~ds:true ~rdy:false);
      Helpers.monitor_step monitor ~time:170 (env ~ds:true ~rdy:true);
      Helpers.monitor_step monitor ~time:340 (env ~ds:false ~rdy:true);
      (* C[0], C[170] and the trivially-true instance of 340 ns. *)
      Alcotest.(check int) "three passes" 3 (Monitor.passes monitor);
      Alcotest.(check int) "none live" 0 (Monitor.live_instances monitor);
      Alcotest.(check (list int)) "no failures" []
        (List.map (fun f -> f.Monitor.failure_time) (Monitor.failures monitor))) ]

let suite = ("paper_artifacts", theorem_iii1_cases @ fig5_cases)
