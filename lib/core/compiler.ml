module Circuit = Pqc_quantum.Circuit
module Pass = Pqc_transpile.Pass
module Route = Pqc_transpile.Route
module Topology = Pqc_transpile.Topology
module Block = Pqc_transpile.Block
module Slice = Pqc_transpile.Slice
module Gate_times = Pqc_pulse.Gate_times
module Pulse = Pqc_pulse.Pulse

let prepare ?topology c =
  let topo =
    match topology with Some t -> t | None -> Topology.line (Circuit.n_qubits c)
  in
  let optimized = Pass.optimize c in
  let routed = (Route.route topo optimized).routed in
  Pass.optimize routed

let lookup_jobs c =
  Array.to_list (Circuit.instrs c)
  |> List.map (fun (i : Circuit.instr) ->
         { Strategy.label = Pqc_quantum.Gate.name i.gate;
           qubits = Array.to_list i.qubits;
           duration = Gate_times.instr_duration i })

let block_label (b : Block.block) =
  Printf.sprintf "block[%s]"
    (String.concat "," (List.map string_of_int b.qubits))

(* One engine block's schedulable job, from its plan template and engine
   result, recording any per-block fallback in the caller's [degs]. *)
let job_of_result ~degs ~detail (j : Strategy.job) (r : Engine.block_result) =
  (match r.Engine.fallback with
  | Some reason ->
    degs :=
      { Resilience.stage = "engine:" ^ j.label; reason; detail;
        run_id = Pqc_obs.Obs.Ctx.current () }
      :: !degs
  | None -> ());
  { j with Strategy.duration = r.Engine.duration_ns }

let pulse_of_jobs jobs =
  Pulse.of_segments
    (List.map
       (fun (j : Strategy.job) ->
         Pulse.Optimized { label = j.label; duration = j.duration; samples = None })
       jobs)

(* Engine blocks are the segments labelled by [block_label] or as a
   flexible slice; strict's lookup-priced theta gates are Optimized
   segments too, but carry the gate's name. *)
let engine_blocks (r : Strategy.compiled) =
  List.length
    (List.filter
       (function
         | Pulse.Optimized { label; _ } ->
           String.starts_with ~prefix:"block[" label
           || String.starts_with ~prefix:"slice[" label
         | Pulse.Lookup _ -> false)
       (Pulse.segments r.Strategy.pulse))

type strategy = Pqc_analysis.Rule.target =
  | Gate_based
  | Strict_partial
  | Flexible_partial
  | Full_grape

let all_strategies = [ Gate_based; Strict_partial; Flexible_partial; Full_grape ]

let strategy_name = Pqc_analysis.Rule.target_to_string

(* --- Plans ---

   Everything a strategy computes that does not depend on the values of
   theta, built once per circuit and reused by every later call.
   [Gate_times] ignores angles and [Gate.name] carries none, so lookup
   durations and pulses are theta-independent; binding zeros prices them
   and raises exactly when binding any theta of the same length would
   ([Param.bind] checks indices, never values). *)

(* Plans live as long as their circuit is compiled, so equal parts are
   stored once: a deep ansatz repeats a handful of distinct blocks and
   gates thousands of times. *)
let share tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.add tbl k v;
    v

type lookup = { duration : float; pulse : Pulse.t }

let lookup_of c ~theta_len =
  let bound = Circuit.bind c (Array.make theta_len 0.0) in
  let segments = Hashtbl.create 16 in
  { duration = Gate_times.circuit_duration bound;
    pulse =
      Pulse.of_segments
        (Array.to_list (Circuit.instrs bound)
        |> List.map (fun (i : Circuit.instr) ->
               share segments (Pqc_quantum.Gate.name i.gate) (fun () ->
                   Pulse.lookup_gate i))) }

(* One strict slicing: its schedule in slice order, where a [Searched]
   slot is a fixed block (a job template awaiting the engine's duration)
   and a [Looked_up] slot is a theta gate priced by the lookup table; plus
   the fixed blocks, extracted and keyed once. *)
type slot = Searched of Strategy.job | Looked_up of Strategy.job

type slicing = { slots : slot list; blocks : Circuit.t list; keys : string list }

(* A block's job, awaiting the engine's duration. *)
let template label (b : Block.block) =
  { Strategy.label; qubits = b.qubits; duration = 0.0 }

(* [templates] and [extracts] are shared by both slicings of a plan. *)
let slicing ~max_width ~theta_len ~templates ~extracts slices =
  let zeros = Array.make theta_len 0.0 in
  let slots =
    List.concat_map
      (fun (s : Slice.slice) ->
        match s.var with
        | None ->
          (* Fixed slice: GRAPE-precompiled offline, blocked to width. *)
          List.map
            (fun (b : Block.block) ->
              let extract = Block.extract b in
              let key = Engine.block_key extract in
              ( share templates b.qubits (fun () ->
                    Searched (template (block_label b) b)),
                Some (share extracts key (fun () -> (extract, key))) ))
            (Block.partition ~max_width s.circuit)
        | Some _ ->
          (* Parametrized gate: lookup-table pulse at runtime. *)
          List.map
            (fun j -> (Looked_up j, None))
            (lookup_jobs (Circuit.bind s.circuit zeros)))
      slices
  in
  let blocks = List.filter_map snd slots in
  { slots = List.map fst slots; blocks = List.map fst blocks;
    keys = List.map snd blocks }

type body =
  | Gate of lookup
  | Strict of { n : int; region : slicing; linear : slicing; gate : lookup }
  | Flexible of {
      n : int;
      templates : Strategy.job list;  (* one per slice block *)
      extracts : Circuit.t list;  (* the blocks, unbound *)
      tuning : Engine.cost option array;
          (* Per block, the hyperparameter-tuning cost, filled in by the
             first call to compile the plan: tuning is offline work,
             measured once at that call's theta. *)
    }
  | Full of { n : int; slots : slot list; extracts : Circuit.t list }

type plan = {
  warnings : Pqc_analysis.Diagnostic.t list;
  body : (body, exn) result;
      (* A strategy that cannot be planned (flexible slicing of a
         non-monotone circuit, say) raises its error when bound, inside
         the degradation ladder; such a plan is never memoised. *)
}

let build_body ~max_width strategy c ~theta_len =
  let n = Circuit.n_qubits c in
  match strategy with
  | Gate_based -> Gate (lookup_of c ~theta_len)
  | Strict_partial ->
    let templates = Hashtbl.create 64 and extracts = Hashtbl.create 64 in
    let slicing = slicing ~max_width ~theta_len ~templates ~extracts in
    let region = slicing (Slice.strict c) in
    let linear = slicing (Slice.strict_linear c) in
    Strict { n; region; linear; gate = lookup_of c ~theta_len }
  | Flexible_partial ->
    let blocks =
      List.concat_map
        (fun (s : Slice.slice) ->
          let label =
            Printf.sprintf "slice[t%s]"
              (match s.var with Some v -> string_of_int v | None -> "-")
          in
          List.map (fun b -> (label, b)) (Block.partition ~max_width s.circuit))
        (Slice.flexible c)
    in
    Flexible
      { n;
        templates = List.map (fun (label, b) -> template label b) blocks;
        extracts = List.map (fun (_, b) -> Block.extract b) blocks;
        tuning = Array.make (List.length blocks) None }
  | Full_grape ->
    (* A theta too short for the circuit raises here, with the message
       binding the whole circuit gives, not at some block's bind. *)
    if Circuit.n_params c > theta_len then
      ignore (Circuit.bind c (Array.make theta_len 0.0));
    let blocks = Block.partition ~max_width c in
    Full
      { n;
        slots = List.map (fun b -> Searched (template (block_label b) b)) blocks;
        extracts = List.map Block.extract blocks }

(* The static analyzer's verdict is theta-independent too: it sees only
   the theta length.  Errors abort (Runner.Rejected) and are never
   cached, so a rejected circuit is re-analyzed and rejected on every
   call; warnings are kept and become each call's own degradation
   records. *)
let build_plan ~analysis ~max_width strategy c ~theta_len =
  Pqc_obs.Obs.Span.with_ ~name:"compiler.plan"
    ~attrs:[ ("strategy", strategy_name strategy) ]
  @@ fun () ->
  let warnings =
    if not analysis then []
    else
      Pqc_obs.Obs.Span.with_ ~name:"compiler.analysis" @@ fun () ->
      let report =
        Pqc_analysis.Runner.analyze ~theta_len ~max_width ~target:strategy c
      in
      if Pqc_analysis.Runner.has_errors report then
        raise (Pqc_analysis.Runner.Rejected report);
      Pqc_analysis.Runner.warnings report
  in
  let body =
    match build_body ~max_width strategy c ~theta_len with
    | b -> Ok b
    | exception e -> Error e
  in
  { warnings; body }

(* A plan is keyed on the physical identity of the circuit (abstract and
   immutable) and of the engine, plus everything else the plan depends
   on.  Each domain keeps the most recent plan per strategy, so memory
   stays flat on a stream of distinct circuits. *)
type key = {
  circuit : Circuit.t;
  engine : Engine.t;
  max_width : int;
  analysis : bool;
  theta_len : int;
}

let same a b =
  a.circuit == b.circuit && a.engine == b.engine && a.max_width = b.max_width
  && a.analysis = b.analysis && a.theta_len = b.theta_len

let slot_index = function
  | Gate_based -> 0
  | Strict_partial -> 1
  | Flexible_partial -> 2
  | Full_grape -> 3

let plans : (key * plan) option array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make 4 None)

let plan_for ~analysis ~max_width ~engine strategy c ~theta_len =
  let key = { circuit = c; engine; max_width; analysis; theta_len } in
  let slots = Domain.DLS.get plans in
  let i = slot_index strategy in
  match slots.(i) with
  | Some (k, p) when same k key ->
    Pqc_obs.Obs.count "compiler.plan.hit";
    p
  | _ ->
    Pqc_obs.Obs.count "compiler.plan.miss";
    let p = build_plan ~analysis ~max_width strategy c ~theta_len in
    if Result.is_ok p.body then slots.(i) <- Some (key, p);
    p

(* --- Binding a plan to theta --- *)

(* A schedule's jobs, its [Searched] slots priced by one engine batch
   over [blocks] (one per such slot, in order), with the batch's search
   cost, fallbacks and pool accounting. *)
let search_slots ~workers ~engine ?keys slots blocks =
  let results, pstats, pool_degs =
    Engine.search_many ?workers ?keys engine blocks
  in
  let cost = ref Engine.zero_cost in
  let degs = ref [] in
  let remaining = ref results in
  let jobs =
    List.map
      (function
        | Looked_up j -> j
        | Searched j ->
          (match !remaining with
          | r :: rest ->
            remaining := rest;
            cost := Engine.add_cost !cost r.Engine.search_cost;
            job_of_result ~degs
              ~detail:"block search fell back to lookup-table duration" j r
          | [] -> assert false (* one result per searched slot *)))
      slots
  in
  (jobs, !cost, List.rev !degs @ pool_degs, pstats)

let bind_strict ~workers ~engine ~n ~region ~linear ~(gate : lookup) =
  (* Both slicings are zero-latency at runtime, so the compiler
     precompiles both offline and keeps whichever schedule is shorter
     (region slicing wins when parameters are dense, linear slicing when
     they are sparse enough that deep runs survive whole). *)
  let search s = search_slots ~workers ~engine ~keys:s.keys s.slots s.blocks in
  let region_jobs, region_cost, region_degs, region_pool = search region in
  let linear_jobs, linear_cost, linear_degs, linear_pool = search linear in
  let region_span = Strategy.makespan ~n region_jobs in
  let linear_span = Strategy.makespan ~n linear_jobs in
  let jobs, precompute, raw, degs =
    if region_span <= linear_span then
      (region_jobs, region_cost, region_span, region_degs)
    else (linear_jobs, linear_cost, linear_span, linear_degs)
  in
  (* Strict partial compilation is never worse than gate-based: both have
     zero runtime latency, so the compiler keeps whichever schedule is
     shorter (relevant only when blocking serializes an unusually parallel
     circuit, or when a block is unattainable), and emits that
     schedule's pulse. *)
  let duration_ns, pulse =
    if gate.duration < raw then (gate.duration, gate.pulse)
    else (raw, pulse_of_jobs jobs)
  in
  { Strategy.strategy = "strict-partial";
    duration_ns;
    precompute;
    per_iteration = Engine.zero_cost;
    pulse;
    degradations = degs;
    (* Both slicings were compiled, so both batches' work is reported
       even though only one schedule survives. *)
    pool = Engine.add_pool_stats region_pool linear_pool }

let bind_flexible ~workers ~engine ~n ~templates ~extracts ~tuning ~theta =
  (* Search + tuned run per slice block (plus, on the plan's first call,
     hyperparameter tuning), the whole per-block pipeline batched over
     the pool. *)
  let results, pstats, pool_degs =
    Engine.flex_many ?workers ~tuning:(Array.to_list tuning) engine
      (List.map (fun e -> Circuit.bind e theta) extracts)
  in
  (* Tuning measured while a fault plan injects engine failures was run at
     fallback durations; the plan does not keep it. *)
  if not (Option.fold ~none:false ~some:Fault.injects_engine_faults
            (Fault.current ()))
  then
    List.iteri
      (fun i (fr : Engine.flex_result) ->
        if Option.is_none tuning.(i) then tuning.(i) <- Some fr.Engine.hyperopt)
      results;
  let precompute = ref Engine.zero_cost in
  let per_iteration = ref Engine.zero_cost in
  let degs = ref [] in
  let jobs =
    List.map2
      (fun j (fr : Engine.flex_result) ->
        let r = fr.Engine.search in
        (* Offline: the minimal-time search plus hyperparameter tuning,
           once per slice block. *)
        precompute :=
          Engine.add_cost !precompute
            (Engine.add_cost r.Engine.search_cost fr.Engine.hyperopt);
        (* Online: one tuned GRAPE run at the known duration. *)
        per_iteration := Engine.add_cost !per_iteration fr.Engine.tuned;
        job_of_result ~degs
          ~detail:"slice block search fell back to lookup-table duration" j r)
      templates results
  in
  { Strategy.strategy = "flexible-partial";
    duration_ns = Strategy.makespan ~n jobs;
    precompute = !precompute;
    per_iteration = !per_iteration;
    pulse = pulse_of_jobs jobs;
    degradations = List.rev !degs @ pool_degs;
    pool = pstats }

let bind ?workers ~engine plan ~theta =
  match plan.body with
  | Error e -> raise e
  | Ok (Gate g) ->
    { Strategy.strategy = "gate-based"; duration_ns = g.duration;
      precompute = Engine.zero_cost; per_iteration = Engine.zero_cost;
      pulse = g.pulse; degradations = [];
      pool = Engine.zero_pool_stats }
  | Ok (Strict { n; region; linear; gate }) ->
    bind_strict ~workers ~engine ~n ~region ~linear ~gate
  | Ok (Flexible { n; templates; extracts; tuning }) ->
    bind_flexible ~workers ~engine ~n ~templates ~extracts ~tuning ~theta
  | Ok (Full { n; slots; extracts }) ->
    let jobs, cost, degradations, pool =
      search_slots ~workers ~engine slots
        (List.map (fun e -> Circuit.bind e theta) extracts)
    in
    { Strategy.strategy = "full-grape";
      duration_ns = Strategy.makespan ~n jobs;
      precompute = Engine.zero_cost;
      (* The binding changes every iteration, so the whole search repeats
         every iteration: this is the latency that makes out-of-the-box
         GRAPE untenable (Section 1). *)
      per_iteration = cost;
      pulse = pulse_of_jobs jobs;
      degradations;
      pool }

let run strategy ?workers ?(max_width = 4) ~engine c ~theta =
  bind ?workers ~engine
    (plan_for ~analysis:false ~max_width ~engine strategy c
       ~theta_len:(Array.length theta))
    ~theta

let gate_based c ~theta = run Gate_based ~engine:Engine.model c ~theta
let strict_partial = run Strict_partial
let flexible_partial = run Flexible_partial
let full_grape = run Full_grape

(* Graceful degradation ladder.  Gate-based is the terminal rung: pure
   table lookups, no optimizer, cannot fail. *)
let degrade_chain = function
  | Gate_based -> [ Gate_based ]
  | Strict_partial -> [ Strict_partial; Gate_based ]
  | Flexible_partial -> [ Flexible_partial; Strict_partial; Gate_based ]
  | Full_grape -> [ Full_grape; Strict_partial; Gate_based ]

let usable (r : Strategy.compiled) =
  Float.is_finite r.Strategy.duration_ns && r.Strategy.duration_ns >= 0.0

let compile ?workers ?(max_width = 4) ?(analysis = true) ~engine
    strategy c ~theta =
  (* Every top-level compile gets a correlation id.  An ambient context
     (set by a batch driver like the bench matrix) wins; otherwise a
     fresh deterministic id is minted from the strategy name.  Direct
     strategy calls (strict_partial, ...) bypass this and run with
     whatever context the caller holds — None in tests, which keeps
     degradation strings and goldens byte-identical. *)
  let module Ctx = Pqc_obs.Obs.Ctx in
  let ctx =
    match Ctx.current () with
    | Some _ as c -> c
    | None -> Some (Ctx.mint ("compile:" ^ strategy_name strategy))
  in
  Ctx.with_ctx ctx @@ fun () ->
  Pqc_obs.Obs.Span.with_ ~name:"compiler.compile"
    ~attrs:
      [ ("strategy", strategy_name strategy);
        ("qubits", string_of_int (Circuit.n_qubits c));
        ("gates", string_of_int (Circuit.length c)) ]
  @@ fun () ->
  (* Fail-fast gate: no GRAPE time is spent on a circuit that violates
     the invariants the strategies rely on.  The requested strategy's
     plan carries the analyzer's verdict; warnings become degradation
     records, so the accounting that already tracks engine fallbacks
     also shows what the analyzer flagged. *)
  let theta_len = Array.length theta in
  let plan =
    plan_for ~analysis ~max_width ~engine strategy c ~theta_len
  in
  let lint_degs =
    List.map
      (fun d ->
        { Resilience.stage = "analysis"; reason = Resilience.Lint;
          detail = Pqc_analysis.Diagnostic.to_string d;
          run_id = Ctx.current () })
      plan.warnings
  in
  let attempt s =
    Pqc_obs.Obs.Span.with_ ~name:"compiler.strategy"
      ~attrs:[ ("strategy", strategy_name s) ]
    @@ fun () ->
    let plan =
      if s = strategy then plan
      else plan_for ~analysis:false ~max_width ~engine s c ~theta_len
    in
    bind ?workers ~engine plan ~theta
  in
  let rec go degs = function
    | [] -> assert false (* chains always end in Gate_based *)
    | [ last ] ->
      let r = attempt last in
      { r with Strategy.degradations = degs @ r.Strategy.degradations }
    | s :: rest -> (
      match attempt s with
      | r when usable r ->
        { r with Strategy.degradations = degs @ r.Strategy.degradations }
      | _ ->
        Pqc_obs.Obs.count "compiler.degraded";
        go
          (degs
          @ [ { Resilience.stage = strategy_name s;
                reason = Resilience.Non_finite;
                detail = "strategy produced a non-finite pulse duration";
                run_id = Ctx.current () } ])
          rest
      | exception e ->
        Pqc_obs.Obs.count "compiler.degraded";
        go
          (degs
          @ [ { Resilience.stage = strategy_name s;
                reason = Resilience.Diverged;
                detail = "strategy raised: " ^ Printexc.to_string e;
                run_id = Ctx.current () } ])
          rest)
  in
  go lint_degs (degrade_chain strategy)
