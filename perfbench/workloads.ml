(* The benchmark's closed-loop workloads.  Each builds its inputs from the
   workload seed alone, and a request is one step of a variational loop
   that waits for the previous step to finish before issuing the next. *)

module Compiler = Pqc_core.Compiler
module Engine = Pqc_core.Engine
module Strategy = Pqc_core.Strategy
module Bench_matrix = Pqc_core.Bench_matrix
module Circuit = Pqc_quantum.Circuit
module Statevec = Pqc_quantum.Statevec
module Pauli = Pqc_quantum.Pauli
module Graph = Pqc_qaoa.Graph
module Qaoa = Pqc_qaoa.Qaoa
module Maxcut = Pqc_qaoa.Maxcut
module Grape = Pqc_grape.Grape
module Rng = Pqc_util.Rng
module Obs = Pqc_obs.Obs

(* The numeric engine at the settings the repository's [bench json]
   experiment uses. *)
let settings =
  { Grape.fast_settings with
    Grape.dt = 1.0;
    max_iters = 60;
    target_fidelity = 0.98 }

let max_width = 2

type compiled = {
  strategy : string;
  duration_ns : float;
  lookup_ns : float Lazy.t;
      (** Gate-based duration of the same bound circuit; forced by the
          output checks after the timed loop, never inside it. *)
  accounted_s : float;  (** The compile's [per_iteration] seconds. *)
  degradations : string;  (** [""] for a clean compile. *)
}

type outcome = {
  compiled : compiled list;  (** In call order. *)
  energy : float;  (** [nan] for requests that evaluate none. *)
  compile_s : float;  (** Time inside [Compiler.compile]. *)
  sim_s : float;
  persist_error : string option;
}

type cache_stats = { load_ms : float; file_bytes : int; entries : int }

type finish = {
  failures : (int option * string) list;  (** With the request at fault, if one is. *)
  cache : cache_stats option;
}

type ctx = {
  setup_compiled : compiled list;
      (** The set-up compile's outputs, compared across worker counts. *)
  request : int -> outcome;  (** Request [k >= 1] of the seeded stream. *)
  finish : served:int -> finish;
      (** Checks that need the whole run, given how many requests ran. *)
}

type t = {
  name : string;
  why : string;
  fixed_requests : int;
      (** Requests every run serves and its CPU and peak-RSS figures
          cover, so that they measure the same work whatever the host's
          speed: 8 to 20 s of CPU on a 2-vCPU host. *)
  setup : seed:int -> workers:int -> tmp:string -> ctx;
}

let now = Unix.gettimeofday

let timed name f =
  let t0 = now () in
  let x = Obs.Span.with_ ~name f in
  (x, now () -. t0)

let compile_one ~workers ~engine strategy prepared theta =
  let r, s =
    timed "bench.compile" (fun () ->
        Compiler.compile ~workers ~max_width ~engine strategy prepared ~theta)
  in
  ( { strategy = Compiler.strategy_name strategy;
      duration_ns = r.Strategy.duration_ns;
      lookup_ns = lazy (Compiler.gate_based prepared ~theta).Strategy.duration_ns;
      accounted_s = r.Strategy.per_iteration.Engine.seconds;
      degradations =
        (if Strategy.degraded r then Strategy.degradation_report r else "") },
    s )

let no_finish ~served:_ = { failures = []; cache = None }

let pi = Float.pi

(* A seeded random walk over the parameter box [-pi, pi]^n, reflected at
   the walls.  Every request gets a new theta, as under a real optimizer,
   but the stream cannot stall: on the synthetic Hamiltonians Nelder-Mead
   stops after its initial simplex and would hide the cost of new thetas. *)
let theta_walk ~seed ~n =
  let rng = Rng.create seed in
  let thetas = ref [| Array.init n (fun _ -> Rng.uniform rng ~lo:(-.pi) ~hi:pi) |] in
  let reflect x = if x > pi then (2.0 *. pi) -. x else if x < -.pi then (-2.0 *. pi) -. x else x in
  fun k ->
    while Array.length !thetas <= k do
      let last = !thetas.(Array.length !thetas - 1) in
      let next = Array.map (fun x -> reflect (x +. Rng.gaussian rng)) last in
      thetas := Array.append !thetas [| next |]
    done;
    !thetas.(k)

(* One variational circuit recompiled for every theta of the walk, with
   the energy evaluated on the state-vector simulator after each compile.
   The set-up compiles theta_0, which precompiles every block a strategy
   can reuse. *)
let loop_workload ~name ~why ~fixed_requests ~strategy ~circuit ~energy =
  let setup ~seed ~workers ~tmp:_ =
    let circuit, energy = (circuit (), energy ~seed) in
    let prepared = Compiler.prepare circuit in
    let engine = Engine.numeric ~settings () in
    let theta = theta_walk ~seed ~n:(Circuit.n_params circuit) in
    let compile th = compile_one ~workers ~engine strategy prepared th in
    let setup_compiled = [ fst (compile (theta 0)) ] in
    let request k =
      let th = theta k in
      let c, compile_s = compile th in
      let e, sim_s =
        timed "bench.sim" (fun () -> energy (Statevec.run ~theta:th circuit))
      in
      { compiled = [ c ]; energy = e; compile_s; sim_s; persist_error = None }
    in
    { setup_compiled; request; finish = no_finish }
  in
  { name; why; fixed_requests; setup }

let vqe_strict =
  let m = Pqc_vqe.Molecule.beh2 in
  loop_workload ~name:"vqe-strict-beh2"
    ~why:
      "zero-latency path on a deep VQE ansatz: after set-up every block is a \
       memo hit, so a request is compile front end plus simulation"
    ~fixed_requests:400
    ~strategy:Compiler.Strict_partial
    ~circuit:(fun () -> Pqc_vqe.Uccsd.ansatz m)
    ~energy:(fun ~seed ->
      let h = Pqc_vqe.Chemistry.synthetic ~seed ~n_qubits:m.Pqc_vqe.Molecule.n_qubits in
      Pauli.expectation h)

(* The graph [partialc --benchmark 3reg6p2] compiles. *)
let qaoa_3reg6p2 =
  match Bench_matrix.workload_of_spec "3reg6p2" with
  | Ok (Bench_matrix.Qaoa { graph; p }) -> (graph, p)
  | Ok (Bench_matrix.Mol _) | Error _ -> invalid_arg "3reg6p2 is a QAOA spec"

let qaoa_flex =
  let graph, p = qaoa_3reg6p2 in
  loop_workload ~name:"qaoa-flex-3reg6p2"
    ~why:
      "the paper's QAOA strategy: each new theta misses the memo, so a \
       request runs block searches, tuning grids and tuned runs on the pool"
    ~fixed_requests:80
    ~strategy:Compiler.Flexible_partial
    ~circuit:(fun () -> Qaoa.circuit graph ~p)
    ~energy:(fun ~seed:_ -> Maxcut.expected_cut graph)

(* ---- offline precompile of a stream of QAOA instances ---------------- *)

type family = Regular3 | Erdos_renyi

(* One request precompiles a group of instances, one per size and round
   count of the paper's QAOA benchmarks, each graph drawn from a seeded
   family.  A single instance per request would make the median request
   land between the cheap 6-node and the expensive 8-node instances, where
   it moves with every draw; a group's cost is steady from one seed to the
   next. *)
let group = [ (6, 1); (6, 2); (8, 1); (8, 2) ]

let instance ~seed k (n, p) =
  let rng = Rng.create (Hashtbl.hash (seed, k, n, p)) in
  let family = if Rng.bool rng then Regular3 else Erdos_renyi in
  let rec draw () =
    let g =
      match family with
      | Regular3 -> Graph.random_regular rng ~degree:3 n
      | Erdos_renyi -> Graph.erdos_renyi rng ~p:0.5 n
    in
    if Graph.n_edges g = 0 then draw () else g
  in
  let g = draw () in
  let theta = Array.init (Qaoa.n_params ~p) (fun _ -> Rng.uniform rng ~lo:(-.pi) ~hi:pi) in
  (Qaoa.circuit g ~p, theta)

let both = [ Compiler.Strict_partial; Compiler.Flexible_partial ]

let setups = ref 0

let precompile =
  let setup ~seed ~workers ~tmp =
    (* Warm the process (first fork, heap growth, code paths) on a fixed
       instance and a throwaway engine, so the stream's first request is
       not charged for it and no stream block is precompiled early. *)
    let warm = Engine.numeric ~settings () in
    let k4 = Compiler.prepare (Qaoa.circuit (Graph.clique 4) ~p:1) in
    let setup_compiled =
      List.map (fun s -> fst (compile_one ~workers ~engine:warm s k4 [| 0.4; 0.9 |])) both
    in
    incr setups;
    let path = Filename.concat tmp (Printf.sprintf "pulses-%d.cache" !setups) in
    let engine = Engine.numeric ~settings ~cache_file:path () in
    let cold = Hashtbl.create 64 in
    let request k =
      let compiled, compile_s =
        List.fold_left
          (fun (cs, total) np ->
            let circuit, theta = instance ~seed k np in
            let prepared = Compiler.prepare circuit in
            List.fold_left
              (fun (cs, total) s ->
                let c, dt = compile_one ~workers ~engine s prepared theta in
                Hashtbl.add cold k (s, prepared, theta, c);
                (c :: cs, total +. dt))
              (cs, total) both)
          ([], 0.0) group
      in
      let persisted, _ = timed "bench.persist" (fun () -> Engine.persist_result engine) in
      { compiled = List.rev compiled; energy = Float.nan; compile_s; sim_s = 0.0;
        persist_error =
          (match persisted with
          | Ok () -> None
          | Error d -> Some d.Pqc_core.Resilience.detail) }
    in
    (* A fresh engine loads the journaled file; every strict pulse and the
       flexible pulses of one seeded request must come back equal to the
       cold ones.  Flexible recompiles re-run tuning (never cached), so
       only a sample is checked. *)
    let finish ~served =
      let file_bytes = (Unix.stat path).Unix.st_size in
      let t0 = now () in
      let reloaded = Engine.numeric ~settings ~cache_file:path () in
      let load_ms = (now () -. t0) *. 1e3 in
      let entries = Engine.cache_size reloaded in
      let failures = ref [] in
      let fail k fmt = Printf.ksprintf (fun s -> failures := (k, s) :: !failures) fmt in
      if Engine.cache_dropped reloaded + Engine.cache_salvaged reloaded > 0 then
        fail None "reload dropped %d and salvaged %d cache entries"
          (Engine.cache_dropped reloaded) (Engine.cache_salvaged reloaded);
      if entries <> Engine.cache_size engine then
        fail None "reload holds %d entries, the engine %d" entries (Engine.cache_size engine);
      let rng = Rng.create (Hashtbl.hash (seed, "reload")) in
      let flex_sample = 1 + Rng.int rng served in
      for k = 1 to served do
        List.iter
          (fun (s, prepared, theta, (c : compiled)) ->
            if s = Compiler.Strict_partial || k = flex_sample then begin
              let warm, _ = compile_one ~workers ~engine:reloaded s prepared theta in
              if Int64.bits_of_float warm.duration_ns <> Int64.bits_of_float c.duration_ns
              then
                fail (Some k) "%s: warm %.17g ns after reload, cold %.17g ns"
                  c.strategy warm.duration_ns c.duration_ns
            end)
          (Hashtbl.find_all cold k)
      done;
      { failures = List.rev !failures; cache = Some { load_ms; file_bytes; entries } }
    in
    { setup_compiled; request; finish }
  in
  { name = "precompile-qaoa-stream";
    why =
      "offline precompile of distinct QAOA instances: the largest pool \
       batches, partial block sharing, and the only persistent-cache user";
    fixed_requests = 20;
    setup }

let all = [ vqe_strict; qaoa_flex; precompile ]
