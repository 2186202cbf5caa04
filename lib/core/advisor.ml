module Circuit = Pqc_quantum.Circuit
module Slice = Pqc_transpile.Slice
module Rule = Pqc_analysis.Rule
module Cost = Pqc_analysis.Cost
module Dataflow = Pqc_analysis.Dataflow

type estimate = {
  target : Compiler.strategy;
  feasible : bool;
  pulse_ns : float;
  precompute_s : float;
  per_iteration_s : float;
  blocks : int;
}

type advice = {
  recommended : Compiler.strategy;
  estimates : estimate list;
  blocks : Cost.block_advice list;
  monotone : bool;
  resliceable : bool;
}

let priced target (r : Strategy.compiled) =
  { target;
    feasible = true;
    pulse_ns = r.Strategy.duration_ns;
    precompute_s = r.Strategy.precompute.Engine.seconds;
    per_iteration_s = r.Strategy.per_iteration.Engine.seconds;
    blocks = Compiler.engine_blocks r }

(* Each strategy is priced by compiling it on the calibrated model
   engine, in-process: one worker, so pricing never forks whatever
   PQC_WORKERS says. *)
let estimate ?(max_width = Rule.grape_width_cap) ?theta c target =
  let theta =
    match theta with Some t -> t | None -> Cost.canonical_theta c
  in
  let engine = Engine.model and workers = 1 in
  match target with
  | Compiler.Gate_based -> priced target (Compiler.gate_based c ~theta)
  | Compiler.Strict_partial ->
    priced target (Compiler.strict_partial ~workers ~max_width ~engine c ~theta)
  | Compiler.Flexible_partial ->
    (* The flexible slicer needs parameter monotonicity. *)
    if not (Slice.is_monotone c) then
      { target;
        feasible = false;
        pulse_ns = Float.infinity;
        precompute_s = 0.0;
        per_iteration_s = 0.0;
        blocks = 0 }
    else
      priced target
        (Compiler.flexible_partial ~workers ~max_width ~engine c ~theta)
  | Compiler.Full_grape ->
    priced target (Compiler.full_grape ~workers ~max_width ~engine c ~theta)

(* Recommendation: among strategies that are feasible and fit the
   per-iteration latency budget, the shortest predicted pulse wins; ties
   break toward lower latency, then lower precompute, then the paper's
   presentation order.  Gate-based is always admissible (zero latency),
   so a recommendation always exists. *)
let advise ?(max_width = Rule.grape_width_cap) ?(latency_budget_s = 1.0)
    ?theta c =
  let theta =
    match theta with Some t -> t | None -> Cost.canonical_theta c
  in
  let estimates =
    List.map (estimate ~max_width ~theta c) Compiler.all_strategies
  in
  let monotone = Slice.is_monotone c in
  let resliceable = (not monotone) && Dataflow.reslice c <> None in
  let admissible e = e.feasible && e.per_iteration_s <= latency_budget_s in
  let better a b =
    (* true when [a] beats [b] *)
    if a.pulse_ns <> b.pulse_ns then a.pulse_ns < b.pulse_ns
    else if a.per_iteration_s <> b.per_iteration_s then
      a.per_iteration_s < b.per_iteration_s
    else a.precompute_s < b.precompute_s
  in
  let recommended =
    List.fold_left
      (fun best e ->
        if not (admissible e) then best
        else
          match best with
          | None -> Some e
          | Some b -> if better e b then Some e else best)
      None estimates
  in
  let recommended =
    match recommended with
    | Some e -> e.target
    | None -> Compiler.Gate_based (* unreachable: gate-based is admissible *)
  in
  { recommended;
    estimates;
    blocks = Cost.block_advices ~max_width ~theta c;
    monotone;
    resliceable }

(* --- rendering --- *)

let estimate_to_string e =
  if not e.feasible then
    Printf.sprintf "%-16s infeasible (non-monotone circuit)"
      (Compiler.strategy_name e.target)
  else
    Printf.sprintf
      "%-16s pulse %8.1f ns   precompute %10.3f s   per-iter %10.3f s   \
       blocks %d"
      (Compiler.strategy_name e.target)
      e.pulse_ns e.precompute_s e.per_iteration_s e.blocks

let advice_to_string a =
  let lines =
    [ Printf.sprintf "recommended: %s" (Compiler.strategy_name a.recommended);
      Printf.sprintf "monotone: %b%s" a.monotone
        (if a.resliceable then " (reslicable by commutation)" else "") ]
    @ List.map estimate_to_string a.estimates
    @ List.map
        (fun (b : Cost.block_advice) ->
          Printf.sprintf
            "block {%s} @%d-%d: gate %.2f ns, grape %.2f ns -> %s"
            (String.concat "," (List.map string_of_int b.qubits))
            b.first b.last b.gate_ns b.grape_ns
            (if b.use_pulse then "pulse" else "gate lookup"))
        a.blocks
  in
  String.concat "\n" lines

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let estimate_to_json e =
  Printf.sprintf
    "{\"strategy\":\"%s\",\"feasible\":%b,\"pulse_ns\":%s,\
     \"precompute_s\":%s,\"per_iteration_s\":%s,\"blocks\":%d}"
    (Compiler.strategy_name e.target)
    e.feasible (json_float e.pulse_ns) (json_float e.precompute_s)
    (json_float e.per_iteration_s)
    e.blocks

let block_to_json (b : Cost.block_advice) =
  Printf.sprintf
    "{\"qubits\":[%s],\"first\":%d,\"last\":%d,\"gate_ns\":%s,\
     \"grape_ns\":%s,\"use_pulse\":%b}"
    (String.concat "," (List.map string_of_int b.qubits))
    b.first b.last (json_float b.gate_ns) (json_float b.grape_ns) b.use_pulse

let advice_to_json a =
  Printf.sprintf
    "{\"recommended\":\"%s\",\"monotone\":%b,\"resliceable\":%b,\
     \"estimates\":[%s],\"blocks\":[%s]}"
    (Compiler.strategy_name a.recommended)
    a.monotone a.resliceable
    (String.concat "," (List.map estimate_to_json a.estimates))
    (String.concat "," (List.map block_to_json a.blocks))
