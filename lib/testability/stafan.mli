(** STAFAN-style statistical fault analysis (Jain & Agrawal 1984).

    Instead of analytic propagation, controllabilities and sensitization
    probabilities are {e counted} during ordinary logic simulation; the
    paper names STAFAN as an alternative ANALYSIS provider for the
    optimizer, and this module implements that role. *)

type counts = {
  n_patterns : int;
  ones : int array;  (** per node: patterns with value 1 *)
  sens : int array array;
      (** [sens.(g).(k)]: patterns where gate [g]'s output is sensitive to
          its pin [k] (empty array for inputs/constants) *)
}

val count :
  Rt_circuit.Netlist.t -> source:Rt_sim.Pattern.source -> n_patterns:int -> counts
(** Count over the first [n_patterns] patterns of [source], simulated in
    {!Rt_sim.Pattern.block}s of the default width; the counts do not
    depend on the width. *)

val controllability : counts -> Rt_circuit.Netlist.node -> float
(** Measured one-probability of a node. *)

val observability_subset :
  ?stem_rule:Observability.stem_rule ->
  Rt_circuit.Netlist.t ->
  mask:bool array ->
  counts ->
  float array
(** Backward observability sweep driven by the measured sensitization
    ratios, over a fanout-closed node mask (readers of masked nodes are
    masked); unmasked entries stay 0.  An all-true mask is the full
    sweep. *)

val detection_probs_subset :
  ?stem_rule:Observability.stem_rule ->
  Rt_circuit.Netlist.t ->
  mask:bool array ->
  counts ->
  Rt_fault.Fault.t array ->
  float array
(** Per-fault detection probability estimate for an already-gathered
    fault subset: activation x observability, both from counts, with the
    observability sweep restricted to [mask] (the union of the subset's
    fanout cones). *)
