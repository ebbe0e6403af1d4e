(** Building BDDs for netlist nodes, with optional fault injection.

    Variables are the primary inputs in [Netlist.inputs] order (variable [i]
    is input position [i]).  Construction is bottom-up in topological order;
    a {!Bdd.Limit_exceeded} anywhere aborts with [None] results, signalling
    the caller to fall back to an estimator. *)

val dfs_order : Rt_circuit.Netlist.t -> int array
(** A variable order (input position -> BDD variable level) from a
    depth-first traversal of the output cones.  Structurally related inputs
    (e.g. the two operands of a comparator) end up interleaved, which keeps
    BDDs of comparators, adders and parity cones polynomial where the
    declaration order is exponential.  All functions below use it by
    default; pass [~order] to override. *)

type injection =
  | Stem of Rt_circuit.Netlist.node * bool
      (** Force a node's function to a constant — a stuck-at on the stem. *)
  | Pin of Rt_circuit.Netlist.node * int * bool
      (** [Pin (g, k, v)]: gate [g] sees its [k]-th fanin as constant [v] —
          a stuck-at on one fanout branch. *)

val build :
  ?node_limit:int ->
  ?order:int array ->
  ?inject:injection ->
  Rt_circuit.Netlist.t ->
  (Bdd.manager * Bdd.t array * int array) option
(** BDD for every node of the circuit plus the variable order used (input
    position -> variable); [None] if the node limit (default 500_000) was
    hit.  BDD variables are order-ranks: to evaluate probabilities, map
    variable [v] back through the returned order. *)

val prob_of_inputs : order:int array -> float array -> int -> float
(** [prob_of_inputs ~order x v] is the probability of BDD variable [v]
    given per-input probabilities [x] — the argument to {!Bdd.prob} and
    {!Bdd.prob_many}.  Applied to [~order] and [x] alone it inverts [order]
    once, so each lookup of the returned function is one array read. *)

val signal_probs : ?node_limit:int -> Rt_circuit.Netlist.t -> float array -> float array option
(** Exact signal probability of every node when input [i] is true with
    probability [x_i] — the Parker-McCluskey computation. *)

val detection_function :
  ?node_limit:int ->
  Rt_circuit.Netlist.t ->
  injection ->
  (Bdd.manager * Bdd.t * int array) option
(** The boolean difference: BDD of "some primary output differs between the
    good circuit and the injected-fault circuit" (with the order used).
    Its {!Bdd.prob} under the input distribution is the {e exact} fault
    detection probability [p_f(X)]. *)

val detection_prob :
  ?node_limit:int -> Rt_circuit.Netlist.t -> injection -> float array -> float option
(** [detection_prob c inj x] composes {!detection_function} and {!Bdd.prob}. *)
