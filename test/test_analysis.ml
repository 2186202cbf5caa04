module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
module Diagnostic = Pqc_analysis.Diagnostic
module Rule = Pqc_analysis.Rule
module Rules = Pqc_analysis.Rules
module Runner = Pqc_analysis.Runner
module Cache_audit = Pqc_analysis.Cache_audit
module Pulse_cache = Pqc_core.Pulse_cache
module Resilience = Pqc_core.Resilience
module Strategy = Pqc_core.Strategy
module Engine = Pqc_core.Engine
module Compiler = Pqc_core.Compiler

let diags_of id (report : Runner.report) =
  List.filter (fun (d : Diagnostic.t) -> d.rule = id) report.diagnostics

let has_rule id report = diags_of id report <> []

let span_of id report =
  match diags_of id report with
  | { Diagnostic.span = Some s; _ } :: _ -> Some (s.first, s.last)
  | _ -> None

(* --- diagnostics --- *)

let test_diagnostic_ordering () =
  let e = Diagnostic.error ~rule:"PQC001" ~span:(Diagnostic.point 9) "e" in
  let w = Diagnostic.warning ~rule:"PQC030" ~span:(Diagnostic.point 1) "w" in
  let i = Diagnostic.info ~rule:"PQC040" "i" in
  let sorted = List.sort Diagnostic.compare [ i; w; e ] in
  Alcotest.(check (list string)) "errors first"
    [ "PQC001"; "PQC030"; "PQC040" ]
    (List.map (fun (d : Diagnostic.t) -> d.rule) sorted)

let test_diagnostic_json () =
  let d =
    Diagnostic.error ~rule:"PQC020" ~span:(Diagnostic.span ~first:2 ~last:5)
      ~hint:"a \"quoted\" hint" "bad\nthing"
  in
  let j = Diagnostic.to_json d in
  let contains needle =
    let n = String.length needle and h = String.length j in
    let rec go i = i + n <= h && (String.sub j i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rule" true (contains "\"rule\":\"PQC020\"");
  Alcotest.(check bool) "span" true (contains "\"first\":2");
  Alcotest.(check bool) "newline escaped" true (contains "bad\\nthing");
  Alcotest.(check bool) "quote escaped" true (contains "\\\"quoted\\\"")

(* --- validity rules on malformed streams --- *)

let test_validity_rules_on_malformed_stream () =
  let instrs =
    [ { Circuit.gate = Gate.H; qubits = [| 5 |] };
      { Circuit.gate = Gate.CX; qubits = [| 0 |] };
      { Circuit.gate = Gate.CX; qubits = [| 1; 1 |] } ]
  in
  let report = Runner.run (Rule.of_instrs ~n:2 instrs) in
  Alcotest.(check bool) "has errors" true (Runner.has_errors report);
  Alcotest.(check (option (pair int int))) "bounds span" (Some (0, 0))
    (span_of "PQC001" report);
  Alcotest.(check (option (pair int int))) "arity span" (Some (1, 1))
    (span_of "PQC002" report);
  Alcotest.(check (option (pair int int))) "duplicate span" (Some (2, 2))
    (span_of "PQC003" report);
  Alcotest.(check bool) "structural rules skipped" true
    report.Runner.skipped_structural

let test_clean_circuit_reports_nothing () =
  let c = Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.h2 in
  let report = Runner.analyze ~theta_len:3 c in
  Alcotest.(check int) "no errors" 0 report.Runner.errors;
  Alcotest.(check int) "no warnings" 0 report.Runner.warnings;
  Alcotest.(check bool) "structural ran" false report.Runner.skipped_structural;
  Alcotest.(check int) "exit code" 0 (Runner.exit_code report)

(* --- parameter rules --- *)

let test_non_finite_angle () =
  let c = Circuit.of_gates 1 [ (Gate.Rx (Param.const Float.nan), [ 0 ]) ] in
  let report = Runner.analyze c in
  Alcotest.(check bool) "flagged" true (has_rule "PQC010" report);
  Alcotest.(check bool) "is error" true (Runner.has_errors report)

let test_unbound_param () =
  let c = Circuit.of_gates 1 [ (Gate.Rz (Param.var 2), [ 0 ]) ] in
  let short = Runner.analyze ~theta_len:1 c in
  Alcotest.(check (option (pair int int))) "span" (Some (0, 0))
    (span_of "PQC011" short);
  let ok = Runner.analyze ~theta_len:3 c in
  Alcotest.(check bool) "covered is clean" false (has_rule "PQC011" ok)

(* --- slicing invariants --- *)

let non_monotone =
  Circuit.of_gates 1
    [ (Gate.Rz (Param.var 0), [ 0 ]); (Gate.Rz (Param.var 1), [ 0 ]);
      (Gate.Rz (Param.var 0), [ 0 ]) ]

let test_monotonicity_violation_detected () =
  let report = Runner.analyze ~theta_len:2 non_monotone in
  Alcotest.(check bool) "error without target" true (Runner.has_errors report);
  Alcotest.(check (option (pair int int))) "span is the reopening gate"
    (Some (2, 2))
    (span_of "PQC020" report)

let test_monotonicity_severity_by_target () =
  let severity target =
    let r = Runner.analyze ~theta_len:2 ~target non_monotone in
    match diags_of "PQC020" r with
    | d :: _ -> Some d.Diagnostic.severity
    | [] -> None
  in
  Alcotest.(check bool) "fatal for flexible" true
    (severity Rule.Flexible_partial = Some Diagnostic.Error);
  Alcotest.(check bool) "advisory for strict" true
    (severity Rule.Strict_partial = Some Diagnostic.Warning);
  Alcotest.(check bool) "advisory for gate-based" true
    (severity Rule.Gate_based = Some Diagnostic.Warning)

let test_slice_rules_pass_on_benchmarks () =
  List.iter
    (fun c ->
      let report = Runner.analyze c in
      Alcotest.(check bool) "PQC021 silent" false (has_rule "PQC021" report);
      Alcotest.(check bool) "PQC022 silent" false (has_rule "PQC022" report))
    [ Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.h2;
      Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.lih;
      Pqc_qaoa.Qaoa.circuit (Pqc_qaoa.Graph.clique 4) ~p:2 ]

(* --- blocking and connectivity --- *)

let entangling_chain n =
  Circuit.of_gates n
    (List.init (n - 1) (fun q -> (Gate.CX, [ q; q + 1 ])))

let test_block_width_oversized () =
  let c = entangling_chain 6 in
  let report = Runner.analyze ~max_width:6 c in
  let errors =
    List.filter Diagnostic.is_error (diags_of "PQC030" report)
  in
  (match errors with
  | [ d ] ->
    Alcotest.(check (option (pair int int))) "span covers the chain"
      (Some (0, 4))
      (Option.map (fun (s : Diagnostic.span) -> (s.first, s.last)) d.span)
  | _ -> Alcotest.fail "expected exactly one oversized-block error");
  Alcotest.(check bool) "budget warning too" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Warning)
       (diags_of "PQC030" report))

let test_block_width_within_cap () =
  let report = Runner.analyze ~max_width:4 (entangling_chain 6) in
  Alcotest.(check bool) "silent at cap" false (has_rule "PQC030" report)

let test_block_width_budget_too_small () =
  let report = Runner.analyze ~max_width:1 (entangling_chain 3) in
  Alcotest.(check bool) "budget < 2 is an error" true
    (List.exists Diagnostic.is_error (diags_of "PQC030" report));
  (* PQC030 owns the case: the other blocking rules stay silent rather
     than crash on a partition that cannot exist. *)
  Alcotest.(check bool) "no rule crashed" false (has_rule "PQC999" report)

let test_connectivity () =
  let c = Circuit.of_gates 3 [ (Gate.CX, [ 0; 2 ]); (Gate.CX, [ 0; 1 ]) ] in
  let report = Runner.analyze ~topology:(Topology.line 3) c in
  Alcotest.(check (option (pair int int))) "non-adjacent pair flagged"
    (Some (0, 0))
    (span_of "PQC031" report);
  Alcotest.(check int) "only the bad gate" 1
    (List.length (diags_of "PQC031" report));
  let no_topo = Runner.analyze c in
  Alcotest.(check bool) "silent without topology" false
    (has_rule "PQC031" no_topo)

(* --- lints --- *)

let test_adjacent_inverse_lint () =
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]); (Gate.H, [ 0 ]) ] in
  let report = Runner.analyze c in
  Alcotest.(check (option (pair int int))) "pair span" (Some (0, 1))
    (span_of "PQC040" report);
  Alcotest.(check int) "advisory only" 0 report.Runner.errors

let test_mergeable_rotation_lint () =
  let c =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.const 0.1), [ 0 ]); (Gate.Rz (Param.const 0.2), [ 0 ]);
        (Gate.Rx (Param.const (4.0 *. Float.pi)), [ 0 ]) ]
  in
  let report = Runner.analyze c in
  let found = diags_of "PQC041" report in
  Alcotest.(check bool) "merge pair found" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.span = Some { Diagnostic.first = 0; last = 1 })
       found);
  Alcotest.(check bool) "dead rotation found" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.span = Some { Diagnostic.first = 2; last = 2 })
       found)

(* --- runner mechanics --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_crashing_rule_is_contained () =
  let crashing =
    { Rule.id = "TST999"; title = "crash"; doc = "always crashes";
      check = Rule.Structural (fun _ _ -> failwith "boom") }
  in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let report = Runner.run ~rules:(Rules.all @ [ crashing ]) (Rule.of_circuit c) in
  Alcotest.(check (list string)) "no finding under the crashed rule's id" []
    (List.map (fun (d : Diagnostic.t) -> d.message) (diags_of "TST999" report));
  match diags_of "PQC999" report with
  | [ d ] ->
    Alcotest.(check bool) "reported as error" true (Diagnostic.is_error d);
    Alcotest.(check bool) "names the crashed rule" true
      (contains ~sub:"TST999" d.Diagnostic.message);
    Alcotest.(check bool) "carries the exception" true
      (contains ~sub:"boom" d.Diagnostic.message);
    (* The backtrace (or the explicit unavailability marker) follows the
       exception on its own lines. *)
    Alcotest.(check bool) "message is multi-line" true
      (contains ~sub:"\n" d.Diagnostic.message)
  | _ -> Alcotest.fail "crash must surface as exactly one PQC999 diagnostic"

let test_duplicate_rule_rejected () =
  let dup =
    { Rule.id = "PQC020"; title = "imposter"; doc = "duplicate id";
      check = Rule.Structural (fun _ _ -> []) }
  in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  (match Runner.run ~rules:(Rules.all @ [ dup ]) (Rule.of_circuit c) with
  | _ -> Alcotest.fail "duplicate rule id must be rejected"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the id" true (contains ~sub:"PQC020" msg))

let test_overrides () =
  (* non_monotone trips PQC020 (error, lint target) and PQC060/PQC061. *)
  let base = Runner.analyze ~theta_len:2 non_monotone in
  Alcotest.(check bool) "baseline has errors" true (Runner.has_errors base);
  let off =
    Runner.analyze ~overrides:[ ("PQC020", Runner.Off) ] ~theta_len:2
      non_monotone
  in
  Alcotest.(check int) "PQC020 findings suppressed" 0
    (List.length (diags_of "PQC020" off));
  Alcotest.(check bool) "suppressed counted" true (off.Runner.suppressed > 0);
  Alcotest.(check int) "totals exclude suppressed"
    (List.length off.Runner.diagnostics)
    (off.Runner.errors + off.Runner.warnings + off.Runner.infos);
  let demoted =
    Runner.analyze
      ~overrides:[ ("PQC020", Runner.Severity Diagnostic.Info) ]
      ~theta_len:2 non_monotone
  in
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check bool) "demoted to info" true
        (d.severity = Diagnostic.Info))
    (diags_of "PQC020" demoted);
  let promoted =
    Runner.analyze
      ~overrides:[ ("PQC060", Runner.Severity Diagnostic.Error) ]
      ~theta_len:2 non_monotone
  in
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check bool) "promoted to error" true (Diagnostic.is_error d))
    (diags_of "PQC060" promoted)

let test_parse_overrides () =
  (match Runner.parse_overrides "PQC040=off, -PQC041 ,PQC030=error" with
  | Ok
      [ ("PQC040", Runner.Off); ("PQC041", Runner.Off);
        ("PQC030", Runner.Severity Diagnostic.Error) ] ->
    ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (match Runner.parse_overrides "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty spec must parse to no overrides");
  (match Runner.parse_overrides "PQC030=fatal" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown level must be rejected");
  match Runner.parse_overrides "PQC040" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare id without '-' or '=' must be rejected"

let test_check_raises_rejected () =
  (match Runner.check ~theta_len:2 non_monotone with
  | _ -> Alcotest.fail "must raise"
  | exception Runner.Rejected report ->
    Alcotest.(check bool) "report has errors" true (Runner.has_errors report));
  let clean = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  Alcotest.(check int) "clean passes" 0 (Runner.check clean).Runner.errors

let test_registry () =
  Alcotest.(check int) "catalog size" 16 (List.length (Rules.catalog ()));
  Alcotest.(check bool) "find by id" true (Rules.find "PQC020" <> None);
  Alcotest.(check bool) "find by title" true
    (Rules.find "param-monotonicity" <> None);
  Alcotest.(check bool) "unknown" true (Rules.find "PQC999" = None)

(* --- cache audit --- *)

let temp_path () = Filename.temp_file "pqc_analysis" ".cache"

let sample_entries =
  [ { Pulse_cache.key = "blk[0,1]|cx 0,1"; duration_ns = 12.5; grape_runs = 3;
      grape_iterations = 120; seconds = 0.4; fidelity = Some 0.999;
      fallback = None; run_id = None };
    { Pulse_cache.key = "blk[2]|h 2"; duration_ns = 4.0; grape_runs = 1;
      grape_iterations = 40; seconds = 0.1; fidelity = None;
      fallback = Some "diverged"; run_id = None } ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* Pins the standalone scanner in pqc_analysis to the real on-disk format
   written by Pqc_core.Pulse_cache: a freshly saved cache must audit
   clean.  If the two implementations ever drift, this test fails. *)
let test_cache_audit_accepts_real_cache () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  let findings = Cache_audit.audit ~path in
  Sys.remove path;
  Alcotest.(check (list string)) "clean audit" []
    (List.map Diagnostic.to_string findings)

let test_cache_audit_detects_corruption () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  (match read_lines path with
  | header :: record :: rest ->
    let corrupt = String.map (fun c -> if c = 'b' then 'X' else c) record in
    write_lines path (header :: corrupt :: rest)
  | _ -> Alcotest.fail "expected header + records");
  let findings = Cache_audit.audit ~path in
  Sys.remove path;
  match List.filter Diagnostic.is_error findings with
  | [ d ] ->
    Alcotest.(check string) "rule id" "PQC050" d.Diagnostic.rule;
    Alcotest.(check (option (pair int int))) "line span" (Some (2, 2))
      (Option.map (fun (s : Diagnostic.span) -> (s.first, s.last))
         d.Diagnostic.span)
  | _ -> Alcotest.fail "expected exactly one checksum error"

let test_cache_audit_bad_header () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  (match read_lines path with
  | _ :: rest -> write_lines path ("PQC-PULSE-CACHE v9" :: rest)
  | [] -> Alcotest.fail "empty cache file");
  let findings = Cache_audit.audit ~path in
  Sys.remove path;
  Alcotest.(check bool) "version mismatch is an error" true
    (List.exists Diagnostic.is_error findings)

let test_cache_audit_duplicate_key () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  (match read_lines path with
  | header :: record :: rest ->
    write_lines path ((header :: record :: rest) @ [ record ])
  | _ -> Alcotest.fail "expected header + records");
  let findings = Cache_audit.audit ~path in
  Sys.remove path;
  Alcotest.(check bool) "duplicate key warned" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Warning)
       findings)

let test_cache_audit_missing_file () =
  let findings = Cache_audit.audit ~path:"/nonexistent/pqc.cache" in
  Alcotest.(check bool) "missing file is a warning, not an error" true
    (findings <> [] && not (List.exists Diagnostic.is_error findings))

(* --- the Compiler.compile gate --- *)

let test_compile_rejects_flexible_on_non_monotone () =
  match
    Compiler.compile ~engine:Engine.model Compiler.Flexible_partial
      non_monotone ~theta:[| 0.1; 0.2 |]
  with
  | _ -> Alcotest.fail "compile must refuse before GRAPE"
  | exception Runner.Rejected report ->
    Alcotest.(check bool) "monotonicity error in report" true
      (List.exists
         (fun (d : Diagnostic.t) -> d.rule = "PQC020" && Diagnostic.is_error d)
         report.Runner.diagnostics)

let test_compile_records_lint_warnings () =
  let r =
    Compiler.compile ~engine:Engine.model Compiler.Strict_partial non_monotone
      ~theta:[| 0.1; 0.2 |]
  in
  Alcotest.(check bool) "degraded accounting" true (Strategy.degraded r);
  Alcotest.(check bool) "lint degradation recorded" true
    (List.exists
       (fun (d : Resilience.degradation) ->
         d.Resilience.stage = "analysis" && d.Resilience.reason = Resilience.Lint)
       r.Strategy.degradations)

let test_compile_analysis_opt_out () =
  let r =
    Compiler.compile ~analysis:false ~engine:Engine.model
      Compiler.Flexible_partial non_monotone ~theta:[| 0.1; 0.2 |]
  in
  Alcotest.(check bool) "still produces a pulse via degradation" true
    (Float.is_finite r.Strategy.duration_ns)

let test_compile_rejects_unbound_param () =
  let c = Circuit.of_gates 1 [ (Gate.Rz (Param.var 5), [ 0 ]) ] in
  match
    Compiler.compile ~engine:Engine.model Compiler.Gate_based c ~theta:[| 0.1 |]
  with
  | _ -> Alcotest.fail "compile must refuse an uncoverable binding"
  | exception Runner.Rejected report ->
    Alcotest.(check bool) "PQC011 error" true
      (List.exists
         (fun (d : Diagnostic.t) -> d.rule = "PQC011")
         report.Runner.diagnostics)

(* --- dataflow/cost rules (PQC06x) --- *)

module Advisor = Pqc_core.Advisor
module Sarif = Pqc_analysis.Sarif

let test_commutation_reslice_rule () =
  (* non_monotone is all-Rz, hence fully commuting: reslicable. *)
  let report = Runner.analyze ~theta_len:2 non_monotone in
  Alcotest.(check bool) "PQC060 fires" true (has_rule "PQC060" report);
  (* An H pins the Rz order: t0's run genuinely cannot be made
     contiguous, so the rule must stay silent. *)
  let pinned =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.var 0), [ 0 ]); (Gate.H, [ 0 ]);
        (Gate.Rz (Param.var 1), [ 0 ]); (Gate.H, [ 0 ]);
        (Gate.Rz (Param.var 0), [ 0 ]) ]
  in
  let report = Runner.analyze ~theta_len:2 pinned in
  Alcotest.(check bool) "PQC060 silent when not reslicable" false
    (has_rule "PQC060" report)

let test_dead_parameter_rule () =
  let c =
    Circuit.of_gates 2
      [ (Gate.Rx (Param.var 0), [ 0 ]); (Gate.CX, [ 0; 1 ]);
        (Gate.Rz (Param.var 1), [ 1 ]) ]
  in
  let report = Runner.analyze ~theta_len:2 c in
  (match diags_of "PQC061" report with
  | [ d ] ->
    Alcotest.(check bool) "names t1" true
      (contains ~sub:"t1" d.Diagnostic.message);
    Alcotest.(check (option (pair int int))) "span is the dead gate"
      (Some (2, 2)) (span_of "PQC061" report)
  | ds ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one PQC061, got %d" (List.length ds)));
  (* An X basis change after the Rz keeps the parameter live. *)
  let live =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.var 0), [ 0 ]); (Gate.H, [ 0 ]) ]
  in
  Alcotest.(check bool) "live param is silent" false
    (has_rule "PQC061" (Runner.analyze ~theta_len:1 live))

let test_block_beats_grape_rule () =
  (* Two Rz(pi) on one qubit: the modelled GRAPE time equals the lookup
     table exactly (both are pure Z-drive content), so pulses buy
     nothing. *)
  let tie =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.const Float.pi), [ 0 ]);
        (Gate.Rz (Param.const Float.pi), [ 0 ]) ]
  in
  Alcotest.(check bool) "PQC062 fires on a no-win block" true
    (has_rule "PQC062" (Runner.analyze tie));
  (* Bell pair: GRAPE compresses H+CX well below the table. *)
  let bell = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ] in
  Alcotest.(check bool) "PQC062 silent when GRAPE wins" false
    (has_rule "PQC062" (Runner.analyze bell))

(* --- SARIF export --- *)

let test_sarif_shape () =
  let report = Runner.analyze ~theta_len:2 non_monotone in
  let sarif = Sarif.of_report ~uri:"test.qasm" report in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" sub) true
        (contains ~sub sarif))
    [ "\"version\":\"2.1.0\"";
      "sarif-2.1.0.json";
      "\"name\":\"partialc-analysis\"";
      "\"ruleId\":\"PQC020\"";
      "\"ruleIndex\":";
      "\"level\":\"error\"";
      "\"firstInstruction\":";
      "\"uri\":\"test.qasm\"" ];
  (* Every result's ruleId resolves: PQC999 and PQC000 are in the driver
     rule table too. *)
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "driver knows %s" sub) true
        (contains ~sub sarif))
    [ "\"id\":\"PQC000\""; "\"id\":\"PQC999\"" ]

(* --- the strategy advisor --- *)

let prepared_h2 = Compiler.prepare (Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.h2)

(* An estimate is the model-engine compile itself, field for field; the
   strict block count leaves out the lookup-priced theta gates. *)
let test_estimates_are_model_compiles () =
  let theta = Pqc_analysis.Cost.canonical_theta prepared_h2 in
  List.iter
    (fun strategy ->
      let e = Advisor.estimate ~theta prepared_h2 strategy in
      let r =
        Compiler.compile ~analysis:false ~engine:Engine.model strategy
          prepared_h2 ~theta
      in
      let name = Compiler.strategy_name strategy in
      Alcotest.(check (float 0.0)) (name ^ " pulse") r.Strategy.duration_ns
        e.Advisor.pulse_ns;
      Alcotest.(check (float 0.0)) (name ^ " precompute")
        r.Strategy.precompute.Engine.seconds e.Advisor.precompute_s;
      Alcotest.(check (float 0.0)) (name ^ " per-iteration")
        r.Strategy.per_iteration.Engine.seconds e.Advisor.per_iteration_s;
      Alcotest.(check int) (name ^ " blocks") (Compiler.engine_blocks r)
        e.Advisor.blocks)
    Compiler.all_strategies;
  let strict =
    Compiler.strict_partial ~engine:Engine.model prepared_h2 ~theta
  in
  Alcotest.(check bool) "strict lookups are not blocks" true
    (Compiler.engine_blocks strict
     < Pqc_pulse.Pulse.length strict.Strategy.pulse)

(* The advisor's predicted pulse-duration ordering must reproduce the
   measured ordering in the committed numeric baseline. *)
let test_ranking_matches_committed_baseline () =
  match Pqc_core.Bench_report.read ~path:"../BENCH_partial_compilation.json" with
  | Error e -> Alcotest.fail e
  | Ok report ->
    let target_of = function
      | "gate-based" -> Rule.Gate_based
      | "strict-partial" -> Rule.Strict_partial
      | "flexible-partial" -> Rule.Flexible_partial
      | "full-grape" -> Rule.Full_grape
      | s -> Alcotest.fail ("unknown strategy in baseline: " ^ s)
    in
    (* Baseline experiments are bench-matrix cells named
       "<workload>+<topology>+w<workers>+fp<plan>"; the line topology is
       the one [Compiler.prepare] routes onto by default. *)
    let circuit_of name =
      match String.split_on_char '+' name with
      | spec :: "line" :: _ -> (
        match Pqc_core.Bench_matrix.circuit_of_spec spec with
        | Ok c -> Compiler.prepare c
        | Error e -> Alcotest.fail e)
      | _ -> Alcotest.fail ("unexpected cell in baseline: " ^ name)
    in
    let rows =
      List.map
        (fun (x : Pqc_core.Bench_report.experiment) ->
          let c = circuit_of x.name in
          let e = Advisor.estimate c (target_of x.strategy) in
          (x.name, e.Advisor.pulse_ns, x.pulse_duration_ns))
        report.Pqc_core.Bench_report.experiments
    in
    Alcotest.(check bool) "baseline has experiments" true (rows <> []);
    List.iter
      (fun (na, pa, ma) ->
        List.iter
          (fun (nb, pb, mb) ->
            if ma <> mb then
              Alcotest.(check bool)
                (Printf.sprintf "%s vs %s: predicted order matches measured"
                   na nb)
                true
                (compare pa pb = compare ma mb))
          rows)
      rows

let test_advise_deterministic () =
  let a = Advisor.advice_to_json (Advisor.advise prepared_h2) in
  let b = Advisor.advice_to_json (Advisor.advise prepared_h2) in
  Alcotest.(check string) "two runs, same advice" a b

let () =
  Alcotest.run "analysis"
    [ ( "diagnostic",
        [ Alcotest.test_case "ordering" `Quick test_diagnostic_ordering;
          Alcotest.test_case "json" `Quick test_diagnostic_json ] );
      ( "validity",
        [ Alcotest.test_case "malformed stream" `Quick
            test_validity_rules_on_malformed_stream;
          Alcotest.test_case "clean circuit" `Quick
            test_clean_circuit_reports_nothing ] );
      ( "parameters",
        [ Alcotest.test_case "non-finite angle" `Quick test_non_finite_angle;
          Alcotest.test_case "unbound param" `Quick test_unbound_param ] );
      ( "slicing",
        [ Alcotest.test_case "monotonicity violation" `Quick
            test_monotonicity_violation_detected;
          Alcotest.test_case "severity by target" `Quick
            test_monotonicity_severity_by_target;
          Alcotest.test_case "benchmarks pass" `Quick
            test_slice_rules_pass_on_benchmarks ] );
      ( "blocking",
        [ Alcotest.test_case "oversized block" `Quick test_block_width_oversized;
          Alcotest.test_case "within cap" `Quick test_block_width_within_cap;
          Alcotest.test_case "budget too small" `Quick
            test_block_width_budget_too_small;
          Alcotest.test_case "connectivity" `Quick test_connectivity ] );
      ( "lint",
        [ Alcotest.test_case "adjacent inverse" `Quick test_adjacent_inverse_lint;
          Alcotest.test_case "mergeable rotation" `Quick
            test_mergeable_rotation_lint ] );
      ( "runner",
        [ Alcotest.test_case "crashing rule contained" `Quick
            test_crashing_rule_is_contained;
          Alcotest.test_case "duplicate rule rejected" `Quick
            test_duplicate_rule_rejected;
          Alcotest.test_case "overrides" `Quick test_overrides;
          Alcotest.test_case "parse overrides" `Quick test_parse_overrides;
          Alcotest.test_case "check raises" `Quick test_check_raises_rejected;
          Alcotest.test_case "registry" `Quick test_registry ] );
      ( "cache-audit",
        [ Alcotest.test_case "accepts real cache" `Quick
            test_cache_audit_accepts_real_cache;
          Alcotest.test_case "detects corruption" `Quick
            test_cache_audit_detects_corruption;
          Alcotest.test_case "bad header" `Quick test_cache_audit_bad_header;
          Alcotest.test_case "duplicate key" `Quick
            test_cache_audit_duplicate_key;
          Alcotest.test_case "missing file" `Quick
            test_cache_audit_missing_file ] );
      ( "compile-gate",
        [ Alcotest.test_case "rejects non-monotone flexible" `Quick
            test_compile_rejects_flexible_on_non_monotone;
          Alcotest.test_case "records lint warnings" `Quick
            test_compile_records_lint_warnings;
          Alcotest.test_case "analysis opt-out" `Quick
            test_compile_analysis_opt_out;
          Alcotest.test_case "rejects unbound param" `Quick
            test_compile_rejects_unbound_param ] );
      ( "dataflow-rules",
        [ Alcotest.test_case "commutation reslice" `Quick
            test_commutation_reslice_rule;
          Alcotest.test_case "dead parameter" `Quick test_dead_parameter_rule;
          Alcotest.test_case "block beats grape" `Quick
            test_block_beats_grape_rule ] );
      ( "sarif", [ Alcotest.test_case "shape" `Quick test_sarif_shape ] );
      ( "advisor",
        [ Alcotest.test_case "estimates are model compiles" `Quick
            test_estimates_are_model_compiles;
          Alcotest.test_case "ranking matches baseline" `Quick
            test_ranking_matches_committed_baseline;
          Alcotest.test_case "deterministic" `Quick
            test_advise_deterministic ] ) ]
