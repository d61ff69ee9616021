(* Integration tests: every experiment driver runs (in quick mode) and its
   headline results point the same direction as the paper's. *)

open Mikpoly_experiments

let run id =
  match Registry.find id with
  | Some e -> e.run ~quick:true
  | None -> Alcotest.fail ("unknown experiment " ^ id)

let tables_nonempty (r : Exp.report) =
  r.tables <> []
  && List.for_all (fun t -> Mikpoly_util.Table.rows t <> []) r.tables

let test_registry_complete () =
  (* One entry per paper artifact we reproduce. *)
  let expected =
    [ "tab1"; "fig1"; "tab3"; "tab4"; "fig6"; "fig7"; "fig8"; "fig9";
      "npu_e2e"; "fig10"; "tab5"; "tab8"; "fig11"; "fig12"; "fig13";
      "case_study"; "ablations"; "winograd"; "fusion"; "inflight"; "batched";
      "costmodel"; "serving"; "adaptation"; "resilience"; "graph"; "fleet";
      "hetero"; "rank" ]
  in
  Alcotest.(check (list string)) "registry ids" expected Registry.ids;
  List.iter
    (fun id -> Alcotest.(check bool) id true (Registry.find id <> None))
    expected

let test_all_experiments_produce_tables () =
  List.iter
    (fun (e : Exp.t) ->
      let r = e.run ~quick:true in
      Alcotest.(check bool) (e.id ^ " renders") true
        (String.length (Exp.render r) > 0);
      Alcotest.(check bool) (e.id ^ " has rows") true (tables_nonempty r);
      Alcotest.(check string) (e.id ^ " id matches") e.id r.id)
    Registry.all

let mean_speedup_of_row report ~table_index ~label =
  let t = List.nth report.Exp.tables table_index in
  let row =
    List.find_opt (fun r -> List.hd r = label) (Mikpoly_util.Table.rows t)
  in
  match row with
  | Some (_ :: mean :: _) ->
    float_of_string (String.sub mean 0 (String.length mean - 1))
  | _ -> Alcotest.fail ("row not found: " ^ label)

let test_fig1_shows_spread () =
  let r = run "fig1" in
  Alcotest.(check bool) "summary mentions spread" true
    (List.exists (fun s -> String.length s > 0) r.summary)

let test_fig6_direction () =
  let r = run "fig6" in
  let mik_gemm = mean_speedup_of_row r ~table_index:0 ~label:"GEMM: MikPoly vs cuBLAS" in
  let mik_conv = mean_speedup_of_row r ~table_index:0 ~label:"conv: MikPoly vs cuDNN" in
  let cut_gemm = mean_speedup_of_row r ~table_index:0 ~label:"GEMM: CUTLASS vs cuBLAS" in
  Alcotest.(check bool) "MikPoly beats cuBLAS on average" true (mik_gemm > 1.0);
  Alcotest.(check bool) "MikPoly beats cuDNN on average" true (mik_conv > 1.0);
  Alcotest.(check bool) "CUTLASS does not beat cuBLAS on average" true (cut_gemm < 1.1)

let test_fig7_direction () =
  let r = run "fig7" in
  let gemm = mean_speedup_of_row r ~table_index:0 ~label:"GEMM: MikPoly vs CANN" in
  let conv = mean_speedup_of_row r ~table_index:0 ~label:"conv: MikPoly vs CANN" in
  Alcotest.(check bool) "GEMM >= 1x" true (gemm >= 1.0);
  Alcotest.(check bool) "conv >= 1x and > GEMM" true (conv >= 1.0)

let test_fig10_ordering () =
  let r = run "fig10" in
  let mik = mean_speedup_of_row r ~table_index:0 ~label:"MikPoly vs DietCode" in
  let nim = mean_speedup_of_row r ~table_index:0 ~label:"Nimble vs DietCode" in
  Alcotest.(check bool) "MikPoly > DietCode" true (mik > 1.0);
  Alcotest.(check bool) "Nimble < DietCode (paper ordering)" true (nim < 1.0)

let test_tab5_invalid_runs () =
  let r = run "tab5" in
  let t = List.hd r.Exp.tables in
  let rows = Mikpoly_util.Table.rows t in
  Alcotest.(check bool) "has model rows" true (rows <> []);
  List.iter
    (fun row ->
      match row with
      | [ _model; _d; _n; _c; diet_invalid; _nim_invalid; mik_invalid ] ->
        Alcotest.(check bool) "DietCode has invalid runs" true
          (int_of_string diet_invalid > 0);
        Alcotest.(check string) "MikPoly has none" "0" mik_invalid
      | _ -> Alcotest.fail "unexpected row shape")
    rows

let test_case_study_improvement () =
  let r = run "case_study" in
  (* The Table 9 reproduction: GEMM-AB restores sm_efficiency. *)
  Alcotest.(check bool) "summaries present" true (List.length r.summary >= 2)

let test_fig12_ablation_ordering () =
  let r = run "fig12" in
  let t = List.nth r.Exp.tables 1 in
  let value name =
    let row =
      List.find (fun row -> List.hd row = name) (Mikpoly_util.Table.rows t)
    in
    let v = List.nth row 1 in
    float_of_string (String.sub v 0 (String.length v - 1))
  in
  let full = value "MikPoly" in
  Alcotest.(check bool) "full model close to oracle" true (full > 0.85);
  Alcotest.(check bool) "full >= wave variant" true
    (full >= value "MikPoly-Wave" -. 0.02);
  Alcotest.(check bool) "full >= pipe variant" true
    (full >= value "MikPoly-Pipe" -. 0.02)

let test_backends_helpers () =
  Alcotest.(check (option (float 1e-9))) "speedup" (Some 2.)
    (Backends.speedup_or_skip ~baseline:(Ok 2.) ~target:(Ok 1.));
  Alcotest.(check (option (float 1e-9))) "skip on error" None
    (Backends.speedup_or_skip ~baseline:(Error "x") ~target:(Ok 1.))

let test_flops_buckets () =
  let cases = [ (1e3, 2.); (2e3, 4.); (1e6, 1.) ] in
  let buckets = Exp.flops_buckets ~flops:fst ~speedup:snd cases in
  Alcotest.(check int) "two buckets" 2 (List.length buckets);
  match buckets with
  | (label, mean, n) :: _ ->
    Alcotest.(check string) "first decade" "1e3-1e4" label;
    Alcotest.(check (float 1e-9)) "mean" 3. mean;
    Alcotest.(check int) "count" 2 n
  | [] -> Alcotest.fail "no buckets"

let test_gate_helpers () =
  let ok = { Gate.name = "a"; ok = true; detail = "fine" } in
  let bad = { Gate.name = "b"; ok = false; detail = "1 vs 2" } in
  let json gs =
    Mikpoly_telemetry.Json.to_string (Mikpoly_telemetry.Json.Obj (Gate.json_fields gs))
  in
  Alcotest.(check string) "json, all hold"
    {|{"gates":[{"name":"a","ok":true,"detail":"fine"}],"gates_ok":true}|}
    (json [ ok ]);
  Alcotest.(check bool) "json, one failed" true
    (String.ends_with ~suffix:{|"gates_ok":false}|} (json [ ok; bad ]));
  Alcotest.(check string) "summary, all hold" "all good"
    (Gate.summary ~all_hold:"all good" [ ok ]);
  Alcotest.(check string) "summary, failures" "GATE FAILURES: b (1 vs 2)"
    (Gate.summary ~all_hold:"all good" [ ok; bad ]);
  Alcotest.(check bool) "all_hold" true (Gate.all_hold ~prefix:"t" [ ok ]);
  Alcotest.(check bool) "not all_hold" false
    (Gate.all_hold ~prefix:"t" [ ok; bad ])

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "all run and render" `Slow
            test_all_experiments_produce_tables;
        ] );
      ( "directions",
        [
          Alcotest.test_case "fig1 spread" `Quick test_fig1_shows_spread;
          Alcotest.test_case "fig6 direction" `Quick test_fig6_direction;
          Alcotest.test_case "fig7 direction" `Quick test_fig7_direction;
          Alcotest.test_case "fig10 ordering" `Quick test_fig10_ordering;
          Alcotest.test_case "tab5 invalid runs" `Quick test_tab5_invalid_runs;
          Alcotest.test_case "case study" `Quick test_case_study_improvement;
          Alcotest.test_case "fig12 ablation ordering" `Quick
            test_fig12_ablation_ordering;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "backends helpers" `Quick test_backends_helpers;
          Alcotest.test_case "flops buckets" `Quick test_flops_buckets;
          Alcotest.test_case "gate helpers" `Quick test_gate_helpers;
        ] );
    ]
