module Circuit = Pqc_quantum.Circuit
module Block = Pqc_transpile.Block
module Gate_times = Pqc_pulse.Gate_times
module Pulse_model = Pqc_pulse.Pulse_model

type block_advice = {
  qubits : int list;
  first : int;
  last : int;
  gate_ns : float;
  grape_ns : float;
  use_pulse : bool;
}

(* A representative binding for purely static analysis: pi/2 everywhere
   avoids the zero-angle degeneracies (an Rz(0) prices as free) without
   favouring any particular gate. *)
let canonical_theta c =
  Array.make (Circuit.n_params c) (Float.pi /. 2.0)

let block_advices ?(max_width = Rule.grape_width_cap) ?theta c =
  let theta =
    match theta with Some t -> t | None -> canonical_theta c
  in
  let bound = Circuit.bind c theta in
  Block.partition_with_indices ~max_width bound
  |> List.map (fun ((b : Block.block), indices) ->
         let extracted = Block.extract b in
         let gate_ns = Gate_times.circuit_duration extracted in
         let grape_ns =
           if Circuit.n_qubits extracted > Rule.grape_width_cap then
             Float.infinity
           else Pulse_model.block_duration extracted
         in
         { qubits = b.qubits;
           first = List.fold_left min max_int indices;
           last = List.fold_left max 0 indices;
           gate_ns;
           grape_ns;
           (* Strictly better beyond float noise: a tie (the model caps
              GRAPE at the lookup-table time) means pulses buy nothing. *)
           use_pulse = grape_ns < gate_ns *. (1.0 -. 1e-9) })
