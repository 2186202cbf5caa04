(* Per-layer metrics.  Span-based ones come from one traced pass over the
   same requests as the untraced pass; self times are computed from the
   parent ids [Obs.events] returns, spans of forked pool workers included.
   Kernel timings are taken from outside, on the linear-algebra calls
   GRAPE makes. *)

module Obs = Pqc_obs.Obs
module P = Perfstats
module Cmat = Pqc_linalg.Cmat
module Expm = Pqc_linalg.Expm

type metric = { name : string; unit_ : string; value : float }

(* Spans that only group other layers: whatever of their time no child
   covers is time the trace cannot attribute to a layer. *)
let containers =
  [ "bench.request"; "bench.compile"; "bench.persist"; "compiler.compile";
    "compiler.strategy" ]

(* Requests whose [bench.request] span the trace holds.  The event buffer
   is bounded, so a pass that overflows it records fewer than it served. *)
let requests_recorded events =
  List.length
    (List.filter
       (fun s -> s.P.tid = 0 && s.P.name = "bench.request")
       (P.spans_of_events events))

let from_trace ~events ~served =
  let nodes = P.tree (P.spans_of_events events) in
  let n = float_of_int (max 1 served) in
  let fold f = List.fold_left (fun acc nd -> acc +. f nd.P.span nd) 0.0 nodes in
  let self names =
    fold (fun s nd -> if List.mem s.P.name names then P.self_time nd else 0.0)
  in
  let dur ?(keep = fun _ -> true) name =
    fold (fun s nd -> if s.P.name = name && keep nd then s.P.dur else 0.0)
  in
  let calls name = fold (fun s _ -> if s.P.name = name then 1.0 else 0.0) in
  let counter = Obs.counter_value in
  let ms_per_req x = x *. 1e3 /. n in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let iterations =
    List.fold_left
      (fun acc -> function
        | Obs.Profile { points; _ } ->
          acc
          +. float_of_int
               (List.fold_left (fun m p -> max m p.Obs.iteration) 0 points)
        | Obs.Span _ | Obs.Count _ | Obs.Gauge _ -> acc)
      0.0 events
  in
  let map_capacity =
    fold (fun s _ ->
        if s.P.name = "pool.map" then
          s.P.dur
          *. float_of_string
               (Option.value ~default:"1" (List.assoc_opt "workers" s.P.attrs))
        else 0.0)
  in
  let hits = counter "engine.batch.cache_hits" +. counter "engine.cache.hit" in
  let request_s = dur "bench.request" in
  let unexplained =
    fold (fun s nd ->
        if s.P.tid = 0 && List.mem s.P.name containers then P.self_time nd else 0.0)
  in
  [ ("analysis.ms_per_req", "ms/req", ms_per_req (self [ "compiler.analysis" ]));
    ( "transpile.slice_ms_per_req", "ms/req",
      ms_per_req (self [ "slice.strict"; "slice.strict_linear"; "slice.flexible" ]) );
    ("transpile.partition_ms_per_req", "ms/req", ms_per_req (self [ "block.partition" ]));
    ("transpile.partition_calls_per_req", "count/req", calls "block.partition" /. n);
    ( "compiler.self_ms_per_req", "ms/req",
      ms_per_req (self [ "compiler.compile"; "compiler.strategy" ]) );
    ("engine.batch_self_ms_per_req", "ms/req", ms_per_req (self [ "engine.batch" ]));
    ("engine.search_ms_per_req", "ms/req", ms_per_req (dur "engine.search"));
    ( "engine.flex_tune_ms_per_req", "ms/req",
      ms_per_req
        (dur "grape.optimize"
           ~keep:(fun nd -> not (P.has_ancestor ~name:"grape.minimal_time" nd))) );
    ("engine.dispatched_per_req", "count/req", counter "engine.batch.dispatched" /. n);
    ("engine.hit_ratio", "ratio", ratio hits (hits +. counter "engine.cache.miss"));
    ("grape.optimize_ms_per_req", "ms/req", ms_per_req (dur "grape.optimize"));
    ("grape.optimize_calls_per_req", "count/req", calls "grape.optimize" /. n);
    ("grape.iterations_per_req", "count/req", iterations /. n);
    ("grape.expm_memo_hits_per_req", "count/req", counter "grape.expm.memo_hits" /. n);
    ("pool.map_ms_per_req", "ms/req", ms_per_req (dur "pool.map"));
    ("pool.items_per_req", "count/req", calls "pool.item" /. n);
    ( "pool.efficiency", "ratio",
      ratio (dur "pool.item" ~keep:(fun nd -> nd.P.span.P.tid > 0)) map_capacity );
    ("pool.recovered", "count", counter "pool.recovered");
    ("cache.persist_ms_per_req", "ms/req", ms_per_req (dur "engine.persist"));
    ("sim.ms_per_req", "ms/req", ms_per_req (dur "bench.sim"));
    ("loop.other_ms_per_req", "ms/req", ms_per_req (self [ "bench.request" ]));
    ("trace.unexplained_frac", "ratio", ratio unexplained request_s) ]
  |> List.map (fun (name, unit_, value) -> { name; unit_; value })

(* Median nanoseconds per call over seven batches. *)
let per_call_ns ~batch f =
  let sample () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch
  in
  P.median (Array.init 7 (fun _ -> sample ()))

(* Generators of the size and scale GRAPE exponentiates: -i H dt for a
   random Hermitian H on one or two qubits. *)
let kernels () =
  let rng = Pqc_util.Rng.create 17 in
  let gen n = Cmat.scale { Complex.re = 0.0; im = -0.25 } (Cmat.random_hermitian rng n) in
  let expm n =
    let a = gen n and ws = Expm.make_ws n and dst = Cmat.create n n in
    per_call_ns ~batch:5000 (fun () -> Expm.expm_into ws ~dst a)
  in
  let mul4 =
    let a = gen 4 and b = gen 4 and dst = Cmat.create 4 4 in
    per_call_ns ~batch:50000 (fun () -> Cmat.mul_into ~dst a b)
  in
  [ { name = "linalg.expm4_ns"; unit_ = "ns"; value = expm 4 };
    { name = "linalg.expm2_ns"; unit_ = "ns"; value = expm 2 };
    { name = "linalg.mul4_ns"; unit_ = "ns"; value = mul4 } ]
