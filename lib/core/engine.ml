module Gate = Pqc_quantum.Gate
module Param = Pqc_quantum.Param
module Circuit = Pqc_quantum.Circuit
module Gate_times = Pqc_pulse.Gate_times
module Pulse_model = Pqc_pulse.Pulse_model
module Grape = Pqc_grape.Grape
module Hamiltonian = Pqc_grape.Hamiltonian
module Hyperopt = Pqc_hyperopt.Hyperopt
module Pool = Pqc_parallel.Pool
module Obs = Pqc_obs.Obs

type cost = { grape_runs : int; grape_iterations : int; seconds : float }

let zero_cost = { grape_runs = 0; grape_iterations = 0; seconds = 0.0 }

let add_cost a b =
  { grape_runs = a.grape_runs + b.grape_runs;
    grape_iterations = a.grape_iterations + b.grape_iterations;
    seconds = a.seconds +. b.seconds }

type block_result = {
  duration_ns : float;
  search_cost : cost;
  fidelity : float option;
  fallback : Resilience.failure option;
  run_id : string option;
      (* correlation id ambient when the result was produced; cache hits
         keep the id of the request that originally paid for the pulse *)
}

(* Flexible compilation's per-block costs beyond the search, measured at
   the memoised search duration of the same key.  [hyperopt] is [None]
   until the grid has run on this block: a cost copied in from a plan's
   tuning slot was measured on some other block and is never recorded
   here. *)
type flex_costs = { tuned : cost; hyperopt : cost option }

type numeric_config = {
  settings : Grape.settings;
  system_for : int -> Hamiltonian.t;
  cache : (string, block_result) Hashtbl.t;
  flex : (string, flex_costs) Hashtbl.t;
      (* in-memory only: never persisted *)
  policy : Resilience.policy;
  deadline_s : float option;
  cache_file : string option;
  mutable cache_dropped : int;
  mutable cache_salvaged : int;
}

type t =
  | Model
  | Numeric of numeric_config

let model = Model

(* --- Persistent cache plumbing --- *)

let entry_of_result key (r : block_result) =
  { Pulse_cache.key;
    duration_ns = r.duration_ns;
    grape_runs = r.search_cost.grape_runs;
    grape_iterations = r.search_cost.grape_iterations;
    seconds = r.search_cost.seconds;
    fidelity = r.fidelity;
    fallback = Option.map Resilience.failure_to_string r.fallback;
    run_id = r.run_id }

(* [None] when the fallback tag is not a failure we know — treat the
   record as corrupt rather than resurrecting it with wrong semantics. *)
let result_of_entry (e : Pulse_cache.entry) =
  let fallback =
    match e.fallback with
    | None -> Some None
    | Some s ->
      (match Resilience.failure_of_string s with
       | Some f -> Some (Some f)
       | None -> None)
  in
  Option.map
    (fun fallback ->
      { duration_ns = e.duration_ns;
        search_cost =
          { grape_runs = e.grape_runs;
            grape_iterations = e.grape_iterations;
            seconds = e.seconds };
        fidelity = e.fidelity;
        fallback;
        run_id = e.run_id })
    fallback

let load_cache cfg path =
  let { Pulse_cache.entries; dropped; salvaged } = Pulse_cache.load ~path in
  let unknown = ref 0 in
  List.iter
    (fun (e : Pulse_cache.entry) ->
      match result_of_entry e with
      | Some r -> Hashtbl.replace cfg.cache e.key r
      | None -> incr unknown)
    entries;
  cfg.cache_dropped <- dropped + !unknown;
  cfg.cache_salvaged <- salvaged

let numeric ?(settings = Grape.fast_settings) ?system_for ?policy ?deadline_s
    ?cache_file () =
  let system_for =
    match system_for with Some f -> f | None -> fun n -> Hamiltonian.gmon n
  in
  let policy =
    match policy with Some p -> p | None -> Resilience.policy_from_env ()
  in
  let deadline_s =
    match deadline_s with
    | Some _ as s -> s
    | None -> Resilience.deadline_seconds_from_env ()
  in
  let cache_file =
    match cache_file with
    | Some _ as f -> f
    | None -> Sys.getenv_opt "PQC_PULSE_CACHE"
  in
  let cfg =
    { settings; system_for; cache = Hashtbl.create 64;
      flex = Hashtbl.create 16; policy; deadline_s;
      cache_file; cache_dropped = 0; cache_salvaged = 0 }
  in
  (match cache_file with Some path -> load_cache cfg path | None -> ());
  Numeric cfg

let is_numeric = function Numeric _ -> true | Model -> false

let persist_result = function
  | Model -> Ok ()
  | Numeric cfg ->
    (match cfg.cache_file with
     | None -> Ok ()
     | Some path ->
       let entries =
         Hashtbl.fold (fun key r acc -> entry_of_result key r :: acc)
           cfg.cache []
       in
       (* Merge, not overwrite: two engines (or two worker pools) that
          persist to the same cache path must both survive on disk. *)
       Obs.Span.with_ ~name:"engine.persist"
         ~attrs:[ ("entries", string_of_int (List.length entries)) ]
         (fun () ->
           (* An unwritable or full cache path must not fail the compile
              that produced the results: the memo table is intact, only
              its persistence degraded. *)
           match Pulse_cache.merge ~path entries with
           | () -> Ok ()
           | exception ((Sys_error _ | Unix.Unix_error _) as exn) ->
             let detail =
               match exn with
               | Sys_error m -> m
               | Unix.Unix_error (e, op, arg) ->
                 Printf.sprintf "%s: %s (%s)" op (Unix.error_message e) arg
               | _ -> Printexc.to_string exn
             in
             Obs.count "engine.persist.failed";
             Printf.eprintf
               "partialqc: pulse cache %s not persisted: %s\n%!" path detail;
             Error
               { Resilience.stage = "persist"; reason = Resilience.Io_error;
                 detail; run_id = Obs.Ctx.current () }))

let persist t =
  match persist_result t with Ok () -> () | Error _ -> ()

let cache_size = function
  | Model -> 0
  | Numeric cfg -> Hashtbl.length cfg.cache

let cache_dropped = function Model -> 0 | Numeric cfg -> cfg.cache_dropped
let cache_salvaged = function Model -> 0 | Numeric cfg -> cfg.cache_salvaged

(* Canonical key of a bound block, for memoization.  Angles are keyed on
   their exact IEEE-754 bits: a printf truncation here once made bindings
   closer than its precision collide and alias each other's pulses. *)
let block_key c =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (string_of_int (Circuit.n_qubits c));
  Circuit.iter
    (fun (i : Circuit.instr) ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (Gate.name i.gate);
      (match Gate.param i.gate with
      | Some p ->
        Buffer.add_string buf
          (Printf.sprintf "(%Lx)" (Int64.bits_of_float (Param.bind p [||])))
      | None -> ());
      Array.iter (fun q -> Buffer.add_string buf (Printf.sprintf ",%d" q)) i.qubits)
    c;
  Buffer.contents buf

let require_bound c =
  if Circuit.parametrized_gate_count c > 0 then
    invalid_arg "Engine: block still depends on parameters (bind theta first)"

let model_steps settings duration = max 2 (int_of_float (duration /. settings.Grape.dt))

(* Work the model cannot price: a block wider than GRAPE's cap, and the
   tuning and tuned runs at such a block's infinite duration (where the
   step count would be [int_of_float infinity], which OCaml leaves
   unspecified). *)
let unattainable = { zero_cost with seconds = Float.infinity }

let model_search c =
  let width = Circuit.n_qubits c in
  let duration, search_cost =
    if width > Pqc_analysis.Rule.grape_width_cap then
      (* GRAPE cannot compile a block this wide (PQC030 reports it): the
         model prices it as unattainable rather than raising. *)
      (Float.infinity, unattainable)
    else
      let duration = Pulse_model.block_duration c in
      let steps = model_steps Grape.fast_settings (Float.max duration 1.0) in
      let iters =
        Latency_model.probes_per_search * Latency_model.default_iterations width
      in
      ( duration,
        { grape_runs = Latency_model.probes_per_search;
          grape_iterations = iters;
          seconds =
            float_of_int iters
            *. Latency_model.seconds_per_iteration ~width ~steps } )
  in
  { duration_ns = duration;
    search_cost;
    fidelity = None;
    fallback = None;
    run_id = Obs.Ctx.current () }

(* One numeric search attempt at the given (possibly retuned) settings. *)
let numeric_attempt cfg settings deadline c =
  let width = Circuit.n_qubits c in
  let sys = cfg.system_for width in
  let target = Circuit.unitary c in
  let upper = Float.max (Gate_times.circuit_duration c) (4.0 *. settings.Grape.dt) in
  match
    Grape.minimal_time ~settings ?deadline:(Resilience.absolute deadline)
      ~upper_bound:upper sys ~target
  with
  | Some s ->
    if not (Float.is_finite s.minimal.total_time) then
      Error Resilience.Non_finite
    else
      Ok { duration_ns = s.minimal.total_time;
           search_cost =
             { grape_runs = List.length s.probes;
               grape_iterations = s.grape_iterations_total;
               seconds = s.wall_time_s };
           fidelity = Some s.minimal.fidelity;
           fallback = None;
           run_id = Obs.Ctx.current () }
  | None ->
    (* Nothing converged within budget.  Distinguish running out of
       wall-clock from running out of probes so the degradation record
       says why. *)
    if Resilience.expired deadline then Error Resilience.Deadline_exceeded
    else Error Resilience.Diverged
  | exception Invalid_argument _ -> Error Resilience.Non_finite

(* Gate-based lookup duration: realizable by concatenation, always finite
   — the terminal rung of the degradation ladder. *)
let fallback_result c reason spent =
  { duration_ns = Gate_times.circuit_duration c;
    search_cost = spent;
    fidelity = None;
    fallback = Some reason;
    run_id = Obs.Ctx.current () }

let search t c =
  require_bound c;
  if Circuit.length c = 0 then
    { duration_ns = 0.0; search_cost = zero_cost; fidelity = None;
      fallback = None; run_id = Obs.Ctx.current () }
  else
    let policy, deadline =
      match t with
      | Numeric cfg -> (cfg.policy, Resilience.of_seconds cfg.deadline_s)
      | Model -> (Resilience.default_policy, Resilience.no_deadline)
    in
    let cached_key =
      match t with
      | Numeric cfg ->
        let key = block_key c in
        (match Hashtbl.find_opt cfg.cache key with
         | Some r -> Either.Left r
         | None -> Either.Right (Some (cfg, key)))
      | Model -> Either.Right None
    in
    match cached_key with
    | Either.Left r ->
      Obs.count "engine.cache.hit";
      r
    | Either.Right store ->
      (match store with
      | Some _ -> Obs.count "engine.cache.miss"
      | None -> ());
      (* An engine site of the active fault plan fails every attempt, so
         the injected failure runs the real retry and fallback path.  The
         model engine keys blocks only when a plan is active. *)
      let injected =
        Option.bind (Fault.current ()) (fun plan ->
            let block =
              match store with Some (_, key) -> key | None -> block_key c
            in
            Fault.engine_failure plan ~block)
      in
      Obs.Span.with_ ~name:"engine.search"
        ~attrs:
          [ ("width", string_of_int (Circuit.n_qubits c));
            ("gates", string_of_int (Circuit.length c)) ]
      @@ fun () ->
      (* Real (non-injected) attempts that failed still burned optimizer
         time; surface at least the run count in the fallback's cost. *)
      let failed_runs = ref 0 in
      let attempt ~attempt =
        match injected, t with
        | Some failure, _ -> Error failure
        | None, Model -> Ok (model_search c)
        | None, Numeric cfg ->
          let settings = Resilience.retune cfg.policy ~attempt cfg.settings in
          (match numeric_attempt cfg settings deadline c with
           | Ok _ as ok -> ok
           | Error _ as e -> incr failed_runs; e)
      in
      let r =
        match Resilience.with_retries policy deadline attempt with
        | Ok r -> r
        | Error reason ->
          fallback_result c reason { zero_cost with grape_runs = !failed_runs }
      in
      (* Injected faults are synthetic: caching their fallback would leak
         test poison into later, healthy searches.  Genuine results —
         including genuine degradations — are memoized as before. *)
      (match store with
       | Some (cfg, key) when injected = None -> Hashtbl.replace cfg.cache key r
       | _ -> ());
      r

let tuned_run_cost t c ~duration =
  require_bound c;
  let width = Circuit.n_qubits c in
  match t with
  | Model when not (Float.is_finite duration) -> unattainable
  | Model ->
    let iters =
      float_of_int (Latency_model.default_iterations width)
      /. Latency_model.tuning_speedup width
    in
    let steps = model_steps Grape.fast_settings (Float.max duration 1.0) in
    { grape_runs = 1;
      grape_iterations = int_of_float iters;
      seconds = iters *. Latency_model.seconds_per_iteration ~width ~steps }
  | Numeric cfg ->
    let sys = cfg.system_for width in
    let target = Circuit.unitary c in
    let deadline = Resilience.of_seconds cfg.deadline_s in
    let r =
      Grape.optimize ~settings:cfg.settings
        ?deadline:(Resilience.absolute deadline) sys ~target
        ~total_time:duration
    in
    { grape_runs = 1; grape_iterations = r.iterations; seconds = r.wall_time_s }

let hyperopt_cost t c ~duration =
  require_bound c;
  let width = Circuit.n_qubits c in
  match t with
  | Model when not (Float.is_finite duration) -> unattainable
  | Model ->
    let iters =
      Latency_model.hyperopt_grid_evals * Latency_model.default_iterations width
    in
    let steps = model_steps Grape.fast_settings (Float.max duration 1.0) in
    { grape_runs = Latency_model.hyperopt_grid_evals;
      grape_iterations = iters;
      seconds =
        float_of_int iters *. Latency_model.seconds_per_iteration ~width ~steps }
  | Numeric cfg ->
    (* Wall clock, not [Sys.time] (process CPU time): hyperopt probes can
       block on deadlines or fault hooks, and CPU time would silently drop
       that.  Started before [system_for] so Hamiltonian construction is
       part of the reported cost, matching what a caller actually waits. *)
    let t0 = Obs.Clock.now () in
    let sys = cfg.system_for width in
    let obj =
      { Hyperopt.system = sys;
        (* The block is already bound; hyperopt probes perturb nothing, so
           reuse the same target for each probe angle. *)
        target_of = (fun _ -> Circuit.unitary c);
        total_time = duration;
        settings = cfg.settings }
    in
    let deadline = Resilience.of_seconds cfg.deadline_s in
    let lr_grid = Pqc_util.Stats.logspace (-1.0) 0.3 4 in
    let grid =
      Hyperopt.grid_search ~lr_grid ~decay_grid:[| 0.998; 1.0 |]
        ~angles:[| 1.0 |] ?deadline:(Resilience.absolute deadline) obj
    in
    { grape_runs = grid.Hyperopt.runs;
      grape_iterations = grid.Hyperopt.iterations;
      seconds = Obs.Clock.now () -. t0 }

(* --- Batch compilation over the worker pool --- *)

type pool_stats = {
  workers : int;
  dispatched : int;
  cache_hits : int;
  recovered : int;
}

let zero_pool_stats = { workers = 1; dispatched = 0; cache_hits = 0; recovered = 0 }

let add_pool_stats a b =
  { workers = max a.workers b.workers;
    dispatched = a.dispatched + b.dispatched;
    cache_hits = a.cache_hits + b.cache_hits;
    recovered = a.recovered + b.recovered }

(* Block results travel over the worker pipe in the pulse-cache record
   format, so they carry the same FNV-1a checksum on the wire as on
   disk. *)
let encode_search key r = Pulse_cache.encode_entry (entry_of_result key r)

let decode_search s =
  Option.bind (Pulse_cache.decode_entry s) (fun (e : Pulse_cache.entry) ->
      Option.map (fun r -> (e.key, r)) (result_of_entry e))

let encode_cost (c : cost) =
  let p =
    Printf.sprintf "%d\t%d\t%h" c.grape_runs c.grape_iterations c.seconds
  in
  Pulse_cache.checksum p ^ "\t" ^ p

let decode_cost s =
  match String.index_opt s '\t' with
  | None -> None
  | Some i ->
    let crc = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    if not (String.equal (Pulse_cache.checksum rest) crc) then None
    else
      (match
         Scanf.sscanf rest "%d\t%d\t%h" (fun gr gi sec -> (gr, gi, sec))
       with
      | gr, gi, sec when Float.is_finite sec ->
        Some { grape_runs = gr; grape_iterations = gi; seconds = sec }
      | _ -> None
      | exception _ -> None)

(* Generic batch driver: dedup by block key, resolve memo hits in the
   parent, fan the rest out over the pool, verify each record landed on
   the key it was dispatched for, merge results back into the memo table
   (except those the active fault plan injected into, a decision the
   parent recomputes from the key), and reassemble per input order.
   [compute] runs in forked children {e and} in the parent (sequential
   mode and recovery), so the two paths stay behaviorally identical by
   construction. *)
let run_batch (type r) ?workers ?min_items ?keys t circuits
    ~(compute : int -> Pqc_quantum.Circuit.t -> r)
    ~(encode : string -> r -> string)
    ~(decode : string -> (string * r) option)
    ~(cached : numeric_config -> int -> string -> r option)
    ~(store : numeric_config -> int -> string -> r -> unit) :
    r list * pool_stats * Resilience.degradation list =
  List.iter require_bound circuits;
  Obs.Span.with_ ~name:"engine.batch"
    ~attrs:[ ("items", string_of_int (List.length circuits)) ]
  @@ fun () ->
  let n = List.length circuits in
  let keys =
    match keys with
    | None -> List.map block_key circuits
    | Some ks when List.length ks = n -> ks
    | Some _ -> invalid_arg "Engine: one key per circuit"
  in
  (* One result cell per distinct key, shared by its duplicates.  The
     walk is over lists, not arrays: a batch is often thousands of
     blocks that are all memo hits, and arrays that long would be
     allocated on the major heap on every call. *)
  let first : (string, r option ref) Hashtbl.t = Hashtbl.create 16 in
  let cache_hits = ref 0 in
  let todo = ref [] in
  let cells =
    List.mapi
      (fun i (k, c) ->
        match Hashtbl.find_opt first k with
        | Some cell ->
          (* Duplicate block: assembled from its first occurrence. *)
          incr cache_hits;
          cell
        | None ->
          let cell = ref None in
          Hashtbl.add first k cell;
          (if Circuit.length c = 0 then
             (* Empty blocks are free; computing them in-process keeps
                them out of the cache, exactly as the single-item path
                does. *)
             cell := Some (compute i c)
           else
             let hit =
               match t with
               | Numeric cfg -> cached cfg i k
               | Model -> None
             in
             match hit with
             | Some r ->
               incr cache_hits;
               cell := Some r
             | None -> todo := ((i, k, c), cell) :: !todo);
          cell)
      (List.combine keys circuits)
  in
  let todo, todo_cells = List.split (List.rev !todo) in
  if !cache_hits > 0 then
    Obs.count ~by:(float_of_int !cache_hits) "engine.batch.cache_hits";
  if todo <> [] then
    Obs.count ~by:(float_of_int (List.length todo)) "engine.batch.dispatched";
  (* Per-item correlation: each batch item derives "<run_id>#<idx>" from
     the ambient request context (captured here, in the parent, before
     any fork).  The derivation runs inside [f], which is the single
     code path shared by sequential mode, forked children and in-parent
     recovery — so the ids an item's spans, cache entries and records
     carry are identical under any worker count. *)
  let ambient = Obs.Ctx.current () in
  let item_ctx idx = Option.map (fun a -> Obs.Ctx.derive a idx) ambient in
  let item_rid idx =
    match item_ctx idx with
    | Some rid -> rid
    | None -> Printf.sprintf "item#%d" idx
  in
  let f (idx, _k, c) =
    Obs.Ctx.with_ctx (item_ctx idx) (fun () -> compute idx c)
  in
  (* Force the chaos plan (PQC_FAULT_PLAN) to parse and install its pool
     hook before any fork, so seeded worker faults apply to this batch. *)
  let plan = Fault.current () in
  let injected k =
    match plan with
    | Some p -> Option.is_some (Fault.engine_failure p ~block:k)
    | None -> false
  in
  let todo_arr = Array.of_list todo in
  let pool_out, pstats =
    Pool.map ?workers ?min_items
      ~item_label:(fun i ->
        if i < 0 || i >= Array.length todo_arr then ""
        else
          let idx, _, _ = todo_arr.(i) in
          item_rid idx)
      ~encode:(fun (k, r) -> encode k r)
      ~decode
      (fun ((_, k, _) as item) -> (k, f item))
      todo
  in
  let degs = ref [] in
  let mismatched = ref 0 in
  List.iter2
    (fun (((idx, k, _c) as item), cell) ((rk, r), pool_recovered) ->
      let r, recovered =
        if String.equal rk k then (r, pool_recovered)
        else begin
          (* The record checksums fine but answers a different key: the
             index framing was corrupted in transit.  Recompute rather
             than trust it. *)
          incr mismatched;
          (f item, true)
        end
      in
      if recovered then
        degs :=
          { Resilience.stage = "worker-pool"; reason = Resilience.Worker_lost;
            detail =
              Printf.sprintf
                "batch item %d recomputed in-process after its worker's \
                 record was lost or corrupt"
                idx;
            run_id = item_ctx idx }
          :: !degs;
      (match t with
      | Numeric cfg when not (injected k) -> store cfg idx k r
      | _ -> ());
      cell := Some r)
    (List.combine todo todo_cells) pool_out;
  let out =
    List.map
      (fun cell ->
        match !cell with
        | Some r -> r
        | None -> assert false (* every first occurrence was resolved *))
      cells
  in
  let stats =
    { workers = pstats.Pool.workers;
      dispatched = List.length todo;
      cache_hits = !cache_hits;
      recovered = pstats.Pool.recovered + !mismatched }
  in
  (out, stats, List.rev !degs)

let search_many ?workers ?min_items ?keys t circuits =
  run_batch ?workers ?min_items ?keys t circuits
    ~compute:(fun _ c -> search t c)
    ~encode:encode_search ~decode:decode_search
    ~cached:(fun cfg _ k -> Hashtbl.find_opt cfg.cache k)
    ~store:(fun cfg _ k r -> Hashtbl.replace cfg.cache k r)

type flex_result = { search : block_result; hyperopt : cost; tuned : cost }

let flex_many ?workers ?min_items ?tuning t circuits =
  let tuning =
    match tuning with
    | None -> Array.make (List.length circuits) None
    | Some ts when List.length ts = List.length circuits -> Array.of_list ts
    | Some _ -> invalid_arg "Engine.flex_many: one tuning slot per circuit"
  in
  let memo c =
    match t with
    | Numeric cfg -> Hashtbl.find_opt cfg.flex (block_key c)
    | Model -> None
  in
  (* A block whose search, tuned run and tuning are all memoised never
     dispatches; one that is only partly memoised (tuned but never tuned
     by the grid, say) reruns just the missing part.  A plan's tuning
     slot takes precedence over the memo. *)
  let compute i c =
    let r = search t c in
    let m = memo c in
    let hyperopt =
      match tuning.(i), Option.bind m (fun m -> m.hyperopt) with
      | Some h, _ | None, Some h -> h
      | None, None -> hyperopt_cost t c ~duration:r.duration_ns
    in
    let tuned =
      match m with
      | Some m -> m.tuned
      | None -> tuned_run_cost t c ~duration:r.duration_ns
    in
    if Option.is_some m then Obs.count "engine.flex.memo_hit";
    { search = r; hyperopt; tuned }
  in
  let encode k { search = r; hyperopt; tuned } =
    String.concat "\x1f"
      [ encode_search k r; encode_cost hyperopt; encode_cost tuned ]
  in
  let decode s =
    match String.split_on_char '\x1f' s with
    | [ se; he; te ] ->
      Option.bind (decode_search se) (fun (k, r) ->
          Option.bind (decode_cost he) (fun hyperopt ->
              Option.map
                (fun tuned -> (k, { search = r; hyperopt; tuned }))
                (decode_cost te)))
    | _ -> None
  in
  let cached cfg i k =
    match Hashtbl.find_opt cfg.cache k, Hashtbl.find_opt cfg.flex k with
    | Some search, Some { tuned; hyperopt } ->
      (match tuning.(i), hyperopt with
       | Some h, _ | None, Some h ->
         Obs.count "engine.flex.memo_hit";
         Some { search; hyperopt = h; tuned }
       | None, None -> None)
    | _ -> None
  in
  (* Only dispatched blocks are stored, and a block with a tuning slot
     dispatches only while it has no memo entry at all, so nothing is lost
     by leaving its [hyperopt] unset. *)
  let store cfg i k { search = r; hyperopt; tuned } =
    Hashtbl.replace cfg.cache k r;
    let hyperopt = if Option.is_none tuning.(i) then Some hyperopt else None in
    Hashtbl.replace cfg.flex k { tuned; hyperopt }
  in
  run_batch ?workers ?min_items t circuits ~compute ~encode ~decode ~cached
    ~store
