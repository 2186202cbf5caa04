module Circuit = Pqc_quantum.Circuit
(** Per-block gate-vs-pulse pricing: for each block of the circuit's
    blocking, whether a GRAPE pulse ({!Pqc_pulse.Pulse_model}) beats the
    gate lookup table.  Whole-strategy pricing lives in
    [Pqc_core.Advisor], which compiles each strategy on the model
    engine. *)

type block_advice = {
  qubits : int list;
  first : int;  (** First original instruction index of the block. *)
  last : int;
  gate_ns : float;  (** Lookup-table critical path of the block. *)
  grape_ns : float;  (** Modelled GRAPE duration of the block. *)
  use_pulse : bool;
      (** True when GRAPE strictly beats the lookup table on this block —
          the hybrid gate-pulse decision bit (ROADMAP). *)
}

val canonical_theta : Circuit.t -> float array
(** The binding used when none is supplied: pi/2 for every parameter
    (avoids zero-angle degeneracies). *)

val block_advices : ?max_width:int -> ?theta:float array -> Circuit.t ->
  block_advice list
(** Per-block gate-vs-pulse pricing of the whole circuit's blocking.
    [max_width] defaults to {!Rule.grape_width_cap}; [theta] to
    {!canonical_theta}.  Raises [Invalid_argument] when [max_width < 2]
    (a budget {!Pqc_transpile.Block.partition} rejects). *)
