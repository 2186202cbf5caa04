module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Block = Pqc_transpile.Block
module Grape = Pqc_grape.Grape
module Rng = Pqc_util.Rng
module Pool = Pqc_parallel.Pool
module Obs = Pqc_obs.Obs
module Pulse_cache = Pqc_core.Pulse_cache
module Engine = Pqc_core.Engine
module Strategy = Pqc_core.Strategy
module Compiler = Pqc_core.Compiler
module Resilience = Pqc_core.Resilience
module Fault = Pqc_core.Fault
module Cache_audit = Pqc_analysis.Cache_audit
module Diagnostic = Pqc_analysis.Diagnostic
module Molecule = Pqc_vqe.Molecule
module Uccsd = Pqc_vqe.Uccsd
module Graph = Pqc_qaoa.Graph
module Qaoa = Pqc_qaoa.Qaoa

(* Cheap-but-real numeric settings: every equivalence test below runs
   GRAPE twice (sequentially and across forked workers), so the budget
   is kept small. *)
let quick = { Grape.fast_settings with Grape.dt = 1.0; max_iters = 40;
              target_fidelity = 0.95 }

let int_codec =
  (string_of_int, fun s -> int_of_string_opt s)

(* Scoped environment override (restored even on failure): several tests
   below pin PQC_PAR_MIN_ITEMS to defeat or exercise the small-batch
   sequential floor. *)
let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value old ~default:""))
    f

(* --- Pool primitives --- *)

let test_pool_input_order () =
  let enc, dec = int_codec in
  let items = List.init 23 (fun i -> i) in
  let out, stats =
    Pool.map ~workers:4 ~encode:enc ~decode:dec (fun x -> x * x) items
  in
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun x -> x * x) items)
    (List.map fst out);
  Alcotest.(check int) "forked requested workers" 4 stats.Pool.workers;
  Alcotest.(check int) "nothing recovered" 0 stats.Pool.recovered

let test_pool_sequential_mode () =
  let enc, dec = int_codec in
  let forked = ref false in
  let parent = Unix.getpid () in
  let out, stats =
    Pool.map ~workers:1 ~encode:enc ~decode:dec
      (fun x ->
        if Unix.getpid () <> parent then forked := true;
        x + 1)
      (List.init 5 (fun i -> i))
  in
  Alcotest.(check bool) "no fork at workers:1" false !forked;
  Alcotest.(check int) "stats say sequential" 1 stats.Pool.workers;
  Alcotest.(check (list int)) "values" [ 1; 2; 3; 4; 5 ] (List.map fst out);
  Alcotest.(check bool) "no recovery flags" true
    (List.for_all (fun (_, r) -> not r) out)

let test_pool_lost_worker_recovered () =
  let enc, dec = int_codec in
  let parent = Unix.getpid () in
  let out, stats =
    Pool.map ~workers:3 ~encode:enc ~decode:dec
      (fun x ->
        (* Kill the worker that reaches item 4 mid-shard; the parent must
           recompute everything that worker never delivered. *)
        if x = 4 && Unix.getpid () <> parent then Unix._exit 9;
        x * 10)
      (List.init 9 (fun i -> i))
  in
  Alcotest.(check (list int)) "all values present despite the crash"
    (List.init 9 (fun i -> i * 10))
    (List.map fst out);
  Alcotest.(check bool) "at least item 4 recovered" true
    (stats.Pool.recovered >= 1);
  Alcotest.(check bool) "item 4 flagged" true (snd (List.nth out 4))

let test_pool_corrupt_payload_recovered () =
  let enc = string_of_int in
  (* A decoder that rejects odd payloads: those items must be recomputed
     in the parent and flagged, exactly like a lost worker. *)
  let dec s =
    match int_of_string_opt s with
    | Some v when v mod 2 = 0 -> Some v
    | _ -> None
  in
  let out, stats =
    Pool.map ~workers:2 ~encode:enc ~decode:dec
      (fun x -> x)
      (List.init 8 (fun i -> i))
  in
  Alcotest.(check (list int)) "odd values recovered correctly"
    (List.init 8 (fun i -> i))
    (List.map fst out);
  Alcotest.(check int) "every odd item recovered" 4 stats.Pool.recovered;
  List.iteri
    (fun i (_, r) ->
      Alcotest.(check bool) (Printf.sprintf "flag %d" i) (i mod 2 = 1) r)
    out

let test_pool_min_items_floor () =
  (* Batches below the floor run in the parent: forking three processes
     to square three integers costs more than the work.  Encoding the
     computing pid in the result makes "did it fork" observable. *)
  let enc, dec = int_codec in
  let parent = Unix.getpid () in
  let pid_of _ = Unix.getpid () in
  with_env "PQC_PAR_MIN_ITEMS" "" (fun () ->
      let out, stats =
        Pool.map ~workers:4 ~encode:enc ~decode:dec pid_of [ 1; 2; 3 ]
      in
      Alcotest.(check int) "default floor of 4 keeps 3 items sequential" 1
        stats.Pool.workers;
      Alcotest.(check (list int)) "computed in the parent"
        [ parent; parent; parent ]
        (List.map fst out));
  let out, stats =
    Pool.map ~workers:4 ~min_items:10 ~encode:enc ~decode:dec pid_of
      (List.init 9 (fun i -> i))
  in
  Alcotest.(check int) "explicit floor respected" 1 stats.Pool.workers;
  Alcotest.(check bool) "all in parent" true
    (List.for_all (fun (pid, _) -> pid = parent) out);
  with_env "PQC_PAR_MIN_ITEMS" "1" (fun () ->
      let out, stats =
        Pool.map ~workers:2 ~encode:enc ~decode:dec pid_of [ 1; 2 ]
      in
      Alcotest.(check int) "floor of 1 forks a 2-item batch" 2
        stats.Pool.workers;
      Alcotest.(check bool) "computed in children" true
        (List.for_all (fun (pid, _) -> pid <> parent) out))

let test_min_items_from_env () =
  with_env "PQC_PAR_MIN_ITEMS" "7" (fun () ->
      Alcotest.(check int) "parses" 7 (Pool.min_items_from_env ()));
  with_env "PQC_PAR_MIN_ITEMS" "0" (fun () ->
      Alcotest.(check int) "rejects < 1" 4 (Pool.min_items_from_env ()));
  with_env "PQC_PAR_MIN_ITEMS" "soon" (fun () ->
      Alcotest.(check int) "rejects garbage" 4 (Pool.min_items_from_env ()));
  with_env "PQC_PAR_MIN_ITEMS" "" (fun () ->
      Alcotest.(check int) "custom default" 2
        (Pool.min_items_from_env ~default:2 ()))

let test_workers_from_env () =
  Unix.putenv "PQC_WORKERS" "6";
  Alcotest.(check int) "parses" 6 (Pool.workers_from_env ());
  Unix.putenv "PQC_WORKERS" "0";
  Alcotest.(check int) "rejects < 1" 1 (Pool.workers_from_env ());
  Unix.putenv "PQC_WORKERS" "plenty";
  Alcotest.(check int) "rejects garbage" 1 (Pool.workers_from_env ());
  Alcotest.(check int) "custom default" 4
    (Pool.workers_from_env ~default:4 ());
  Unix.putenv "PQC_WORKERS" ""

let test_workers_from_env_invalid_counted () =
  (* Regression: an invalid PQC_WORKERS used to be swallowed silently.
     It now warns on stderr (once per distinct value) and bumps the
     pool.env.invalid counter when tracing is on. *)
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Unix.putenv "PQC_WORKERS" "")
    (fun () ->
      with_env "PQC_WORKERS" "a-few" (fun () ->
          Alcotest.(check int) "falls back to default" 3
            (Pool.workers_from_env ~default:3 ());
          Alcotest.(check (float 0.0)) "counter bumped" 1.0
            (Obs.counter_value "pool.env.invalid"));
      with_env "PQC_WORKERS" "" (fun () ->
          ignore (Pool.workers_from_env ());
          Alcotest.(check (float 0.0)) "unset/empty is not an error" 1.0
            (Obs.counter_value "pool.env.invalid")))

(* --- Engine batch equivalence --- *)

let bits = Int64.bits_of_float

let check_same_result msg (a : Engine.block_result) (b : Engine.block_result) =
  Alcotest.(check int64) (msg ^ ": duration bits") (bits a.Engine.duration_ns)
    (bits b.Engine.duration_ns);
  Alcotest.(check (option int64)) (msg ^ ": fidelity bits")
    (Option.map bits a.Engine.fidelity)
    (Option.map bits b.Engine.fidelity);
  Alcotest.(check bool) (msg ^ ": fallback") true
    (a.Engine.fallback = b.Engine.fallback);
  Alcotest.(check int) (msg ^ ": grape runs")
    a.Engine.search_cost.Engine.grape_runs
    b.Engine.search_cost.Engine.grape_runs;
  Alcotest.(check int) (msg ^ ": grape iterations")
    a.Engine.search_cost.Engine.grape_iterations
    b.Engine.search_cost.Engine.grape_iterations

let h2_blocks () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let rng = Rng.create 5 in
  let theta =
    Array.init (Circuit.n_params c) (fun _ ->
        Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi))
  in
  Block.partition ~max_width:2 (Circuit.bind c theta)
  |> List.map Block.extract

let test_search_many_matches_search () =
  let blocks = h2_blocks () in
  let batch, _, _ =
    Engine.search_many ~workers:1 (Engine.numeric ~settings:quick ()) blocks
  in
  let engine = Engine.numeric ~settings:quick () in
  let single = List.map (Engine.search engine) blocks in
  List.iteri
    (fun i (a, b) -> check_same_result (Printf.sprintf "block %d" i) a b)
    (List.combine single batch)

let test_search_many_worker_count_invariant () =
  let blocks = h2_blocks () in
  let run workers =
    let rs, stats, degs =
      Engine.search_many ~workers (Engine.numeric ~settings:quick ()) blocks
    in
    Alcotest.(check (list string)) "no degradations" []
      (List.map Resilience.degradation_to_string degs);
    (rs, stats)
  in
  let seq, seq_stats = run 1 in
  let par, par_stats = run 4 in
  List.iteri
    (fun i (a, b) -> check_same_result (Printf.sprintf "block %d" i) a b)
    (List.combine seq par);
  Alcotest.(check int) "same dispatch count" seq_stats.Engine.dispatched
    par_stats.Engine.dispatched;
  Alcotest.(check int) "same cache accounting" seq_stats.Engine.cache_hits
    par_stats.Engine.cache_hits

let test_cache_hot_batch_never_forks () =
  (* Regression: a batch whose every block is already memoized used to
     pay the full fork-and-pipe cost to compute nothing.  Hits are now
     resolved in the parent and only misses dispatch; PQC_PAR_MIN_ITEMS
     is pinned to 1 so the sequential outcome below is attributable to
     the empty dispatch list, not the small-batch floor. *)
  let blocks = h2_blocks () in
  let engine = Engine.numeric ~settings:quick () in
  let warm, _, _ = Engine.search_many ~workers:1 engine blocks in
  with_env "PQC_PAR_MIN_ITEMS" "1" (fun () ->
      let hot, stats, degs = Engine.search_many ~workers:4 engine blocks in
      Alcotest.(check int) "nothing dispatched" 0 stats.Engine.dispatched;
      Alcotest.(check int) "no fork on a fully-hot batch" 1
        stats.Engine.workers;
      Alcotest.(check int) "every block a cache hit"
        (List.length blocks) stats.Engine.cache_hits;
      Alcotest.(check int) "no degradations" 0 (List.length degs);
      List.iteri
        (fun i (a, b) ->
          check_same_result (Printf.sprintf "hot block %d" i) a b)
        (List.combine warm hot))

let test_search_many_faulty_invariant () =
  (* Injection must be a function of the batch, not of worker scheduling:
     the same blocks under the same fault seed give the same pattern of
     fallbacks at any worker count. *)
  let blocks = h2_blocks () in
  let run workers =
    let engine =
      Engine.faulty ~rate:0.45 ~seed:99 (Engine.numeric ~settings:quick ())
    in
    let rs, _, _ = Engine.search_many ~workers engine blocks in
    rs
  in
  let seq = run 1 and par = run 4 in
  List.iteri
    (fun i (a, b) -> check_same_result (Printf.sprintf "block %d" i) a b)
    (List.combine seq par);
  (* The fault plan fires for this seed/rate: the test would be vacuous
     if no block ever degraded. *)
  Alcotest.(check bool) "some block degraded" true
    (List.exists (fun r -> r.Engine.fallback <> None) seq)

let test_search_many_fault_plan_invariant () =
  (* The supervision contract under chaos: infrastructure faults (worker
     crashes, torn pipe frames) may cost retries and recoveries but must
     never change a value.  With a nonempty seeded plan installed,
     workers:1 (no forks, so no worker faults) and workers:4 (faulted)
     agree bit-for-bit.  Eight distinct blocks, not the single-block H2
     batch, so the plan demonstrably fires (the recovered guard below). *)
  let blocks =
    List.init 8 (fun i ->
        Circuit.of_gates 1
          [ (Gate.Rx (Param.const (0.15 +. (0.4 *. float_of_int i))), [ 0 ]) ])
  in
  let plan =
    match Fault.parse "seed=3,crash-mid=0.45" with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan rejected: %s" e
  in
  Fault.set (Some plan);
  Fun.protect ~finally:Fault.clear (fun () ->
      let run workers =
        Engine.search_many ~workers (Engine.numeric ~settings:quick ())
          blocks
      in
      let seq, _, _ = run 1 in
      let par, par_stats, _ = run 4 in
      Alcotest.(check bool) "plan fired (items were recovered)" true
        (par_stats.Engine.recovered > 0);
      List.iteri
        (fun i (a, b) -> check_same_result (Printf.sprintf "block %d" i) a b)
        (List.combine seq par))

let test_faulty_results_never_cached () =
  let blocks = h2_blocks () in
  let engine =
    Engine.faulty ~rate:1.0 ~seed:3 (Engine.numeric ~settings:quick ())
  in
  let rs, _, _ = Engine.search_many ~workers:4 engine blocks in
  Alcotest.(check bool) "all results injected fallbacks" true
    (List.for_all (fun r -> r.Engine.fallback <> None) rs);
  Alcotest.(check int) "nothing cached" 0 (Engine.cache_size engine)

let test_flex_many_worker_count_invariant () =
  let blocks = h2_blocks () in
  let run workers =
    let engine = Engine.faulty ~rate:0.3 ~seed:17 Engine.model in
    let rs, _, _ = Engine.flex_many ~workers engine blocks in
    rs
  in
  let seq = run 1 and par = run 4 in
  List.iteri
    (fun i ((a : Engine.flex_result), (b : Engine.flex_result)) ->
      check_same_result (Printf.sprintf "block %d" i) a.Engine.search
        b.Engine.search;
      Alcotest.(check int) "hyperopt runs" a.Engine.hyperopt.Engine.grape_runs
        b.Engine.hyperopt.Engine.grape_runs;
      Alcotest.(check int) "tuned iters"
        a.Engine.tuned.Engine.grape_iterations
        b.Engine.tuned.Engine.grape_iterations)
    (List.combine seq par)

(* --- Flexible memo: tuned and tuning costs beside the pulse memo --- *)

let check_same_flex msg (a : Engine.flex_result) (b : Engine.flex_result) =
  check_same_result msg a.Engine.search b.Engine.search;
  let counts (c : Engine.cost) = (c.Engine.grape_runs, c.Engine.grape_iterations) in
  Alcotest.(check (pair int int)) (msg ^ ": hyperopt counts")
    (counts a.Engine.hyperopt) (counts b.Engine.hyperopt);
  Alcotest.(check (pair int int)) (msg ^ ": tuned counts")
    (counts a.Engine.tuned) (counts b.Engine.tuned)

let check_same_flexes msg a b =
  List.iteri
    (fun i (a, b) -> check_same_flex (Printf.sprintf "%s block %d" msg i) a b)
    (List.combine a b)

(* Several distinct small blocks, some repeated: a bound QAOA circuit on
   K4 partitioned at width 2. *)
let qaoa_blocks () =
  let c = Compiler.prepare (Qaoa.circuit (Graph.clique 4) ~p:1) in
  Block.partition ~max_width:2 (Circuit.bind c [| 0.4; 0.9 |])
  |> List.map Block.extract

let unique_blocks blocks =
  List.length (List.sort_uniq compare (List.map Engine.block_key blocks))

let test_flex_memo_warm_batch_dispatches_nothing () =
  let blocks = qaoa_blocks () in
  Alcotest.(check bool) "distinct blocks, some repeated" true
    (unique_blocks blocks > 1 && unique_blocks blocks < List.length blocks);
  let engine = Engine.numeric ~settings:quick () in
  let cold, cold_stats, _ = Engine.flex_many ~workers:1 engine blocks in
  Alcotest.(check int) "cold dispatches every unique block"
    (unique_blocks blocks) cold_stats.Engine.dispatched;
  with_env "PQC_PAR_MIN_ITEMS" "1" (fun () ->
      let warm, stats, degs = Engine.flex_many ~workers:4 engine blocks in
      Alcotest.(check int) "warm dispatches nothing" 0 stats.Engine.dispatched;
      Alcotest.(check int) "every block served in the parent"
        (List.length blocks) stats.Engine.cache_hits;
      Alcotest.(check int) "no fork" 1 stats.Engine.workers;
      Alcotest.(check int) "no degradations" 0 (List.length degs);
      check_same_flexes "warm" cold warm)

let test_flex_memo_worker_count_invariant () =
  (* Cold and warm, and on a batch only partly memoised (a first call
     whose tuning slots all came from a plan leaves no tuning cost in the
     memo), workers 1 and 4 agree on results and dispatch accounting. *)
  let blocks = qaoa_blocks () in
  let slot = { Engine.grape_runs = 3; grape_iterations = 5; seconds = 0.0 } in
  let run workers =
    with_env "PQC_PAR_MIN_ITEMS" "1" (fun () ->
        let engine = Engine.numeric ~settings:quick () in
        let flex ?tuning () = Engine.flex_many ~workers ?tuning engine blocks in
        let first = flex ~tuning:(List.map (fun _ -> Some slot) blocks) () in
        let second = flex () in
        [ first; second; flex () ])
  in
  let seq = run 1 and par = run 4 in
  List.iteri
    (fun k ((a, sa, _), (b, sb, _)) ->
      let msg = Printf.sprintf "call %d" k in
      check_same_flexes msg a b;
      Alcotest.(check int) (msg ^ ": dispatched") sa.Engine.dispatched
        sb.Engine.dispatched;
      Alcotest.(check int) (msg ^ ": cache hits") sa.Engine.cache_hits
        sb.Engine.cache_hits)
    (List.combine seq par);
  let dispatched =
    List.map (fun (_, (s : Engine.pool_stats), _) -> s.Engine.dispatched) seq
  in
  Alcotest.(check (list int))
    "slot-tuned blocks re-dispatch once for their grid, then never"
    [ unique_blocks blocks; unique_blocks blocks; 0 ] dispatched;
  match seq with
  | [ (first, _, _); (second, _, _); (third, _, _) ] ->
    (* The second call reuses the memoised tuned runs and runs only the
       grid, so its tuned counts equal the first call's. *)
    List.iter2
      (fun (a : Engine.flex_result) (b : Engine.flex_result) ->
        Alcotest.(check int) "tuned iterations reused"
          a.Engine.tuned.Engine.grape_iterations
          b.Engine.tuned.Engine.grape_iterations;
        Alcotest.(check int) "first call reports its slot" 3
          a.Engine.hyperopt.Engine.grape_runs)
      first second;
    check_same_flexes "third" second third
  | _ -> Alcotest.fail "three calls"

let test_flex_memo_tuning_slot_wins () =
  let blocks = qaoa_blocks () in
  let engine = Engine.numeric ~settings:quick () in
  ignore (Engine.flex_many ~workers:1 engine blocks);
  let slot = { Engine.grape_runs = 99; grape_iterations = 7; seconds = 0.5 } in
  let rs, stats, _ =
    Engine.flex_many ~workers:1
      ~tuning:(List.map (fun _ -> Some slot) blocks)
      engine blocks
  in
  Alcotest.(check int) "served from the memo" 0 stats.Engine.dispatched;
  List.iter
    (fun (r : Engine.flex_result) ->
      Alcotest.(check bool) "slot, not the memoised grid cost" true
        (r.Engine.hyperopt = slot))
    rs

let test_flex_memo_faulty_stores_nothing () =
  let blocks = qaoa_blocks () in
  let inner = Engine.numeric ~settings:quick () in
  let rs, _, _ =
    Engine.flex_many ~workers:4 (Engine.faulty ~rate:1.0 ~seed:3 inner) blocks
  in
  Alcotest.(check bool) "all searches injected" true
    (List.for_all
       (fun (r : Engine.flex_result) -> r.Engine.search.Engine.fallback <> None)
       rs);
  Alcotest.(check int) "no search cached" 0 (Engine.cache_size inner);
  let _, stats, _ = Engine.flex_many ~workers:1 inner blocks in
  Alcotest.(check int) "nothing memoised: the healthy engine redoes all"
    (unique_blocks blocks) stats.Engine.dispatched

(* Property: for seeded random blocks, the batch result is invariant in
   the worker count, fault injection included (model engine keeps the
   property cheap enough to sample widely). *)
let random_block rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    let q = Rng.int rng n in
    match Rng.int rng 5 with
    | 0 -> Circuit.Builder.add b Gate.H [ q ]
    | 1 ->
      Circuit.Builder.add b
        (Gate.Rx (Param.const (Rng.uniform rng ~lo:(-3.0) ~hi:3.0)))
        [ q ]
    | 2 ->
      Circuit.Builder.add b
        (Gate.Rz (Param.const (Rng.uniform rng ~lo:(-3.0) ~hi:3.0)))
        [ q ]
    | _ when n >= 2 ->
      let q2 = (q + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.add b Gate.CX [ q; q2 ]
    | _ -> Circuit.Builder.add b Gate.X [ q ]
  done;
  Circuit.Builder.to_circuit b

let same_result (a : Engine.block_result) (b : Engine.block_result) =
  bits a.Engine.duration_ns = bits b.Engine.duration_ns
  && Option.map bits a.Engine.fidelity = Option.map bits b.Engine.fidelity
  && a.Engine.fallback = b.Engine.fallback
  && a.Engine.search_cost.Engine.grape_runs
     = b.Engine.search_cost.Engine.grape_runs
  && a.Engine.search_cost.Engine.grape_iterations
     = b.Engine.search_cost.Engine.grape_iterations

let prop_worker_count_invariant =
  QCheck.Test.make ~count:25 ~name:"search_many invariant in worker count"
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, extra_workers) ->
      let rng = Rng.create (seed + 1) in
      let blocks =
        List.init
          (1 + Rng.int rng 7)
          (fun _ -> random_block rng (1 + Rng.int rng 2) (1 + Rng.int rng 6))
      in
      let run workers =
        let engine = Engine.faulty ~rate:0.5 ~seed Engine.model in
        let rs, _, _ = Engine.search_many ~workers engine blocks in
        rs
      in
      List.for_all2 same_result (run 1) (run (2 + extra_workers)))

(* --- Strategy-level equivalence (UCCSD and QAOA) --- *)

let filter_pool_degs degs =
  List.filter
    (fun (d : Resilience.degradation) ->
      d.Resilience.reason <> Resilience.Worker_lost)
    degs

let check_same_compiled name (a : Strategy.compiled) (b : Strategy.compiled) =
  Alcotest.(check int64) (name ^ ": duration bits") (bits a.Strategy.duration_ns)
    (bits b.Strategy.duration_ns);
  Alcotest.(check bool) (name ^ ": identical pulse schedule") true
    (a.Strategy.pulse = b.Strategy.pulse);
  Alcotest.(check int) (name ^ ": precompute runs")
    a.Strategy.precompute.Engine.grape_runs
    b.Strategy.precompute.Engine.grape_runs;
  Alcotest.(check int) (name ^ ": per-iteration iters")
    a.Strategy.per_iteration.Engine.grape_iterations
    b.Strategy.per_iteration.Engine.grape_iterations;
  Alcotest.(check (list string)) (name ^ ": same degradations")
    (List.map Resilience.degradation_to_string
       (filter_pool_degs a.Strategy.degradations))
    (List.map Resilience.degradation_to_string
       (filter_pool_degs b.Strategy.degradations))

let theta_of c =
  let rng = Rng.create 5 in
  Array.init (Circuit.n_params c) (fun _ ->
      Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi))

let test_strict_partial_worker_invariant () =
  List.iter
    (fun (name, circuit) ->
      let c = Compiler.prepare circuit in
      let theta = theta_of c in
      let compile workers =
        Compiler.strict_partial ~workers ~max_width:2
          ~engine:(Engine.numeric ~settings:quick ())
          c ~theta
      in
      check_same_compiled name (compile 1) (compile 4))
    [ ("uccsd-h2", Uccsd.ansatz Molecule.h2);
      ("qaoa-k4", Qaoa.circuit (Graph.clique 4) ~p:1) ]

let test_flexible_partial_worker_invariant () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta = theta_of c in
  let compile workers =
    Compiler.flexible_partial ~workers ~max_width:2
      ~engine:(Engine.numeric ~settings:quick ())
      c ~theta
  in
  check_same_compiled "uccsd-h2 flexible" (compile 1) (compile 4)

let test_pool_stats_reported () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta = theta_of c in
  let r =
    (* Pinned floor: the assertion below is about stats plumbing, so the
       pool must actually fork even if few blocks miss the memo table. *)
    with_env "PQC_PAR_MIN_ITEMS" "1" (fun () ->
        Compiler.strict_partial ~workers:2 ~max_width:2
          ~engine:(Engine.numeric ~settings:quick ())
          c ~theta)
  in
  Alcotest.(check int) "workers recorded" 2 r.Strategy.pool.Engine.workers;
  Alcotest.(check bool) "blocks dispatched" true
    (r.Strategy.pool.Engine.dispatched > 0);
  Alcotest.(check bool) "gate-based reports zero pool" true
    ((Compiler.gate_based c ~theta).Strategy.pool = Engine.zero_pool_stats)

let test_tracing_preserves_determinism () =
  (* The determinism contract must survive observation: a traced
     4-worker compile produces the same pulse, bit for bit, as an
     untraced sequential one.  The floor is pinned to 1 so the traced
     run genuinely forks (asserted via the pool.worker span). *)
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta = theta_of c in
  let compile workers =
    Compiler.strict_partial ~workers ~max_width:2
      ~engine:(Engine.numeric ~settings:quick ())
      c ~theta
  in
  let untraced = compile 1 in
  Obs.reset ();
  Obs.enable ();
  let traced, rollup =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        with_env "PQC_PAR_MIN_ITEMS" "1" (fun () ->
            let r = compile 4 in
            (r, Obs.rollup ())))
  in
  let span_count name =
    List.fold_left
      (fun acc (n, count, _) -> if n = name then acc + count else acc)
      0 rollup
  in
  Alcotest.(check bool) "traced run forked (pool.worker spans)" true
    (span_count "pool.worker" > 0);
  Alcotest.(check bool) "grape spans recorded" true
    (span_count "grape.optimize" > 0);
  check_same_compiled "traced parallel vs untraced sequential" untraced
    traced

let test_metrics_merge_matches_sequential () =
  (* Histograms observed inside forked workers ship back on "M" frames
     and merge additively in the parent; the merged registry must match
     a sequential run observation-for-observation.  Values are dyadic
     (x * 0.125), so even the float sum is exact regardless of the
     order the workers' frames arrive in. *)
  let enc, dec = int_codec in
  let items = List.init 41 (fun i -> i + 1) in
  let observe x =
    Obs.Metrics.observe "pool.metric" (float_of_int x *. 0.125);
    x
  in
  let capture () =
    ( Option.get (Obs.Metrics.stats "pool.metric"),
      Obs.Metrics.percentiles "pool.metric" )
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      List.iter (fun x -> ignore (observe x)) items;
      let expected = capture () in
      Obs.Metrics.reset ();
      let out, stats =
        with_env "PQC_PAR_MIN_ITEMS" "1" (fun () ->
            Pool.map ~workers:4 ~encode:enc ~decode:dec observe items)
      in
      Alcotest.(check (list int)) "results intact" items (List.map fst out);
      Alcotest.(check int) "genuinely forked" 4 stats.Pool.workers;
      let got_stats, got_pcts = capture () in
      let exp_stats, exp_pcts = expected in
      Alcotest.(check int) "count matches sequential"
        exp_stats.Obs.Metrics.count got_stats.Obs.Metrics.count;
      Alcotest.(check (float 0.0)) "sum matches sequential"
        exp_stats.Obs.Metrics.sum got_stats.Obs.Metrics.sum;
      Alcotest.(check (float 0.0)) "min" exp_stats.Obs.Metrics.min
        got_stats.Obs.Metrics.min;
      Alcotest.(check (float 0.0)) "max" exp_stats.Obs.Metrics.max
        got_stats.Obs.Metrics.max;
      Alcotest.(check bool) "p50/p90/p99 match sequential" true
        (exp_pcts = got_pcts))

(* --- Pulse cache: merge + concurrent persistence --- *)

let mk_entry ?(duration = 1.0) key =
  { Pulse_cache.key; duration_ns = duration; grape_runs = 1;
    grape_iterations = 10; seconds = 0.1; fidelity = Some 0.99;
    fallback = None; run_id = None }

let with_temp_cache f =
  let path = Filename.temp_file "pqc_parallel" ".cache" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".lock"; path ^ ".tmp"; path ^ ".journal" ])
    (fun () -> f path)

let test_merge_newest_wins () =
  with_temp_cache (fun path ->
      Pulse_cache.save ~path [ mk_entry "a"; mk_entry "b"; mk_entry "c" ];
      Pulse_cache.merge ~path
        [ mk_entry ~duration:7.0 "b"; mk_entry "d"; mk_entry ~duration:9.0 "d" ];
      let { Pulse_cache.entries; dropped; salvaged = _ } =
        Pulse_cache.load ~path
      in
      Alcotest.(check int) "no drops" 0 dropped;
      Alcotest.(check (list string)) "keys once each, order stable"
        [ "a"; "b"; "c"; "d" ]
        (List.map (fun (e : Pulse_cache.entry) -> e.Pulse_cache.key) entries);
      let find k =
        List.find (fun (e : Pulse_cache.entry) -> e.Pulse_cache.key = k)
          entries
      in
      Alcotest.(check (float 0.0)) "collision replaced by newest" 7.0
        (find "b").Pulse_cache.duration_ns;
      Alcotest.(check (float 0.0)) "duplicate new key keeps latest" 9.0
        (find "d").Pulse_cache.duration_ns)

let test_merge_concurrent_pools () =
  with_temp_cache (fun path ->
      (* Two processes hammer the same cache path with interleaved merges;
         the lock must serialize them so every record survives intact. *)
      let rounds = 12 in
      let child side =
        match Unix.fork () with
        | 0 ->
          for i = 0 to rounds - 1 do
            Pulse_cache.merge ~path
              [ mk_entry (Printf.sprintf "%s-%d" side i);
                mk_entry ~duration:2.0 (Printf.sprintf "%s-shared" side) ]
          done;
          Unix._exit 0
        | pid -> pid
      in
      let pa = child "a" in
      let pb = child "b" in
      ignore (Unix.waitpid [] pa);
      ignore (Unix.waitpid [] pb);
      let { Pulse_cache.entries; dropped; salvaged = _ } =
        Pulse_cache.load ~path
      in
      Alcotest.(check int) "no corrupt records" 0 dropped;
      Alcotest.(check int) "every record from both pools survives"
        ((rounds + 1) * 2)
        (List.length entries);
      Alcotest.(check (list string)) "audit finds nothing (PQC050)" []
        (List.map Diagnostic.to_string (Cache_audit.audit ~path)))

let test_persist_merges_across_engines () =
  with_temp_cache (fun path ->
      let c1 = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
      let c2 = Circuit.of_gates 1 [ (Gate.X, [ 0 ]) ] in
      let e1 = Engine.numeric ~settings:quick ~cache_file:path () in
      ignore (Engine.search e1 c1);
      Engine.persist e1;
      (* A record the first engine never saw, merged directly (as a
         second pool's persist would): both must survive on disk. *)
      Pulse_cache.merge ~path
        [ { Pulse_cache.key = Engine.block_key c2; duration_ns = 3.0;
            grape_runs = 1; grape_iterations = 5; seconds = 0.0;
            fidelity = None; fallback = None; run_id = None } ];
      Engine.persist e1;
      let e3 = Engine.numeric ~settings:quick ~cache_file:path () in
      Alcotest.(check int) "both blocks on disk after re-persist" 2
        (Engine.cache_size e3))

let () =
  (* Most equivalence tests in this binary exist to exercise forked
     workers on deliberately small batches; pin the small-batch floor so
     they do not silently degrade to the sequential path (individual
     floor tests above override this locally). *)
  Unix.putenv "PQC_PAR_MIN_ITEMS" "1";
  QCheck.Test.check_exn prop_worker_count_invariant;
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "input order" `Quick test_pool_input_order;
          Alcotest.test_case "sequential mode" `Quick test_pool_sequential_mode;
          Alcotest.test_case "lost worker" `Quick
            test_pool_lost_worker_recovered;
          Alcotest.test_case "corrupt payload" `Quick
            test_pool_corrupt_payload_recovered;
          Alcotest.test_case "min-items floor" `Quick
            test_pool_min_items_floor;
          Alcotest.test_case "PQC_PAR_MIN_ITEMS parsing" `Quick
            test_min_items_from_env;
          Alcotest.test_case "PQC_WORKERS parsing" `Quick
            test_workers_from_env;
          Alcotest.test_case "PQC_WORKERS invalid warns" `Quick
            test_workers_from_env_invalid_counted ] );
      ( "engine-batch",
        [ Alcotest.test_case "matches single search" `Quick
            test_search_many_matches_search;
          Alcotest.test_case "worker-count invariant" `Quick
            test_search_many_worker_count_invariant;
          Alcotest.test_case "cache-hot batch stays in-process" `Quick
            test_cache_hot_batch_never_forks;
          Alcotest.test_case "faulty invariant" `Quick
            test_search_many_faulty_invariant;
          Alcotest.test_case "fault-plan invariant" `Quick
            test_search_many_fault_plan_invariant;
          Alcotest.test_case "injected never cached" `Quick
            test_faulty_results_never_cached;
          Alcotest.test_case "flex invariant" `Quick
            test_flex_many_worker_count_invariant;
          Alcotest.test_case "flex memo: warm batch dispatches nothing" `Quick
            test_flex_memo_warm_batch_dispatches_nothing;
          Alcotest.test_case "flex memo: workers 1 = 4" `Quick
            test_flex_memo_worker_count_invariant;
          Alcotest.test_case "flex memo: tuning slot wins" `Quick
            test_flex_memo_tuning_slot_wins;
          Alcotest.test_case "flex memo: faulty stores nothing" `Quick
            test_flex_memo_faulty_stores_nothing ] );
      ( "strategies",
        [ Alcotest.test_case "strict invariant" `Quick
            test_strict_partial_worker_invariant;
          Alcotest.test_case "flexible invariant" `Quick
            test_flexible_partial_worker_invariant;
          Alcotest.test_case "pool stats" `Quick test_pool_stats_reported;
          Alcotest.test_case "worker metrics merge equals sequential" `Quick
            test_metrics_merge_matches_sequential;
          Alcotest.test_case "tracing preserves determinism" `Quick
            test_tracing_preserves_determinism ] );
      ( "pulse-cache",
        [ Alcotest.test_case "merge newest wins" `Quick test_merge_newest_wins;
          Alcotest.test_case "concurrent merges" `Quick
            test_merge_concurrent_pools;
          Alcotest.test_case "persist merges" `Quick
            test_persist_merges_across_engines ] ) ]
