module Gate = Pqc_quantum.Gate
module Param = Pqc_quantum.Param
module Circuit = Pqc_quantum.Circuit

(* Any-unitary time caps, ns.  1-3 qubit values bracket our numeric GRAPE's
   worst observed block times; the 4-qubit value instantiates the paper's
   empirical Figure 2 asymptote ("it asymptotes below 50 ns"). *)
let cap = function
  | 1 -> 3.0
  | 2 -> 9.0
  | 3 -> 20.0
  | 4 -> 50.0
  | n -> invalid_arg (Printf.sprintf "Pulse_model.cap: width %d out of range" n)

(* Local-rotation prices, ns per radian, from the Appendix-A drive bounds:
   an angle theta X-rotation takes theta / (2 * 2pi*0.1) ns, a Z rotation is
   15x faster (Table 1's Rx(pi) = 2.5 ns and Rz(pi) ~ 0.4 ns follow). *)
let x_rate = Gate_times.rx /. Float.pi
let z_rate = Gate_times.rz /. Float.pi

(* Interaction prices.  A lone CX matches our numeric GRAPE (3.8 ns); a
   recognized fractional ZZ(gamma) interaction costs time proportional to
   the angle — theoretical floor (gamma/2) / (2pi*0.05 GHz) = 1.59 gamma,
   plus dressing overhead fit against numeric 2-3 qubit runs. *)
let cx_interaction_time = Gate_times.cx
let zz_rate = 2.0

(* Calibration against the numeric engine (EXPERIMENTS.md): the first CX on
   a pair costs the full Table-1 time, but each further CX on the same pair
   compresses — GRAPE optimizes the pair's composite unitary, reusing the
   coupler ramp.  Accumulated pair interaction is further capped by the
   worst-case two-qubit composite time. *)
let cx_subsequent_time = 2.6
let pair_cap = 7.0

(* Fraction of the smaller of (local, interaction) lane content that cannot
   be overlapped with the larger; fit against numeric GRAPE on mixed
   blocks. *)
let overlap_residue = 0.25

let wrap_angle a =
  (* Wrap to (-pi, pi]: rotations are periodic and GRAPE takes the short
     way around. *)
  let two_pi = 2.0 *. Float.pi in
  let r = Float.rem a two_pi in
  let r = if r > Float.pi then r -. two_pi else r in
  if r <= -.Float.pi then r +. two_pi else r

let const_angle p =
  if not (Param.is_const p) then
    invalid_arg "Pulse_model: parametrized block (bind theta first)";
  Param.bind p [||]

(* A CX at instruction index [i] opens a potential CX . Rz(gamma) . CX
   fractional-ZZ sandwich: the matching CX must follow with only diagonal
   single-qubit gates on the target and nothing else on either operand in
   between.  Returns the index of the closing CX. *)
let find_zz_partner ops i =
  let open Circuit in
  let cx = ops.(i) in
  let a = cx.qubits.(0) and b = cx.qubits.(1) in
  let rec scan j =
    if j >= Array.length ops then None
    else begin
      let o = ops.(j) in
      if o.gate = Gate.CX && o.qubits.(0) = a && o.qubits.(1) = b then Some j
      else if
        Array.length o.qubits = 1
        && o.qubits.(0) = b
        && Gate.is_diagonal o.gate
      then scan (j + 1)
      else if Array.exists (fun q -> q = a || q = b) o.qubits then None
      else scan (j + 1)
    end
  in
  scan (i + 1)

type lane = { mutable local_t : float; mutable int_t : float }

(* Per-pair interaction accumulator, folded into lanes (with the pair cap)
   at the end. *)
type pairs = (int * int, float ref) Hashtbl.t

let pair_add (pairs : pairs) a b t =
  let key = if a < b then (a, b) else (b, a) in
  match Hashtbl.find_opt pairs key with
  | Some r -> r := !r +. t
  | None -> Hashtbl.replace pairs key (ref t)

(* First full-price CX on a pair, compressed price afterwards. *)
let pair_add_cx (pairs : pairs) a b =
  let key = if a < b then (a, b) else (b, a) in
  match Hashtbl.find_opt pairs key with
  | Some r -> r := !r +. cx_subsequent_time
  | None -> Hashtbl.replace pairs key (ref cx_interaction_time)

let block_duration c =
  let n = Circuit.n_qubits c in
  if n > 4 then invalid_arg "Pulse_model.block_duration: width > 4";
  let ops = Circuit.instrs c in
  if Array.length ops = 0 then 0.0
  else begin
    let lanes = Array.init n (fun _ -> { local_t = 0.0; int_t = 0.0 }) in
    let pairs : pairs = Hashtbl.create 8 in
    let consumed = Array.make (Array.length ops) false in
    let add_local q t = lanes.(q).local_t <- lanes.(q).local_t +. t in
    let price_1q (i : Circuit.instr) =
      let q = i.qubits.(0) in
      match i.gate with
      | Gate.Rz p -> add_local q (Float.abs (wrap_angle (const_angle p)) *. z_rate)
      | Gate.Z -> add_local q (Float.pi *. z_rate)
      | Gate.S | Gate.Sdg -> add_local q (Float.pi /. 2.0 *. z_rate)
      | Gate.T | Gate.Tdg -> add_local q (Float.pi /. 4.0 *. z_rate)
      | Gate.Rx p | Gate.Ry p ->
        add_local q (Float.abs (wrap_angle (const_angle p)) *. x_rate)
      | Gate.X | Gate.Y -> add_local q (Float.pi *. x_rate)
      | Gate.H ->
        (* Z(pi/2) X(pi/2) Z(pi/2), the asymmetry-optimal decomposition the
           paper's GRAPE rediscovers (Section 5.1). *)
        add_local q ((Float.pi /. 2.0 *. x_rate) +. (Float.pi *. z_rate))
      | Gate.CX | Gate.CZ | Gate.Swap | Gate.ISwap -> assert false
    in
    Array.iteri
      (fun i (instr : Circuit.instr) ->
        if not consumed.(i) then begin
          match instr.gate with
          | Gate.CX | Gate.CZ ->
            let a = instr.qubits.(0) and b = instr.qubits.(1) in
            let fractional =
              if instr.gate <> Gate.CX then None
              else
                match find_zz_partner ops i with
                | None -> None
                | Some j ->
                  (* Sum the diagonal rotation content between the CXs. *)
                  let gamma = ref 0.0 in
                  for k = i + 1 to j - 1 do
                    (match ops.(k).gate with
                    | Gate.Rz p -> gamma := !gamma +. const_angle p
                    | Gate.Z -> gamma := !gamma +. Float.pi
                    | Gate.S -> gamma := !gamma +. (Float.pi /. 2.0)
                    | Gate.Sdg -> gamma := !gamma -. (Float.pi /. 2.0)
                    | Gate.T -> gamma := !gamma +. (Float.pi /. 4.0)
                    | Gate.Tdg -> gamma := !gamma -. (Float.pi /. 4.0)
                    | _ -> ());
                    consumed.(k) <- true
                  done;
                  consumed.(j) <- true;
                  Some (Float.abs (wrap_angle !gamma))
            in
            (match fractional with
            | Some gamma -> pair_add pairs a b (gamma *. zz_rate)
            | None -> pair_add_cx pairs a b)
          | Gate.Swap | Gate.ISwap ->
            let t =
              match instr.gate with
              | Gate.Swap -> 2.0 *. cx_interaction_time
              | _ -> cx_interaction_time
            in
            pair_add pairs instr.qubits.(0) instr.qubits.(1) t
          | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.X | Gate.Y | Gate.Z
          | Gate.H | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg -> price_1q instr
        end)
      ops;
    Hashtbl.iter
      (fun (a, b) t ->
        let capped = Float.min !t pair_cap in
        lanes.(a).int_t <- lanes.(a).int_t +. capped;
        lanes.(b).int_t <- lanes.(b).int_t +. capped)
      pairs;
    let lane_time l =
      Float.max l.local_t l.int_t
      +. (overlap_residue *. Float.min l.local_t l.int_t)
    in
    let t_raw = Array.fold_left (fun acc l -> Float.max acc (lane_time l)) 0.0 lanes in
    (* GRAPE never does worse than the lookup table on the same block, and
       never needs more than the any-unitary cap. *)
    let gate_based = Gate_times.circuit_duration c in
    Float.min (Float.min t_raw (cap n)) gate_based
  end
