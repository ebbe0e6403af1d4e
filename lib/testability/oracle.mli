(** The engine-agnostic oracle protocol.

    An oracle is a record-of-closures answering detection-probability
    queries for a fixed circuit and fault list.  Three query shapes:

    - {!probs}: the full vector [p_f(X)] (the paper's ANALYSIS), served
      as a subset query over every fault;
    - {!probs_subset} / {!probs_plan}: the same restricted to a fault
      subset's cones;
    - {!cofactor_pair}: both single-variable cofactors [p_f(X,0|i)] and
      [p_f(X,1|i)] of a subset from {e one} traversal — the PREPARE step
      (paper §4, eq. 15), the optimizer's hot path.

    Engines register a fused [cofactor_pair] at construction when they can
    share work between the two cofactors (incremental damage-cone
    re-evaluation for COP/conditioned, a paired BDD traversal, a replayed
    pattern base for MC/STAFAN); otherwise the protocol falls back to two
    independent subset queries.  Both paths return bit-identical vectors —
    the fused implementations are required to reproduce the fallback's
    floats exactly — so switching engines or paths never changes optimizer
    results.  The [oracle.cofactor.incremental] / [oracle.cofactor.full]
    counters record which path served each query. *)

type plan
(** A prepared subset query: the selected faults plus the node masks
    (observability cone union; fanin-closed signal-probability support)
    their evaluation touches.  Plans are tied to the oracle family that
    made them (same circuit and fault array). *)

type t

val make :
  kind:string ->
  label:string ->
  c:Rt_circuit.Netlist.t ->
  faults:Rt_fault.Fault.t array ->
  exact:bool array ->
  redundant:bool array ->
  run_subset:(plan -> float array -> float array) ->
  ?cofactor_pair:(plan -> input:int -> float array -> float array * float array) ->
  unit ->
  t
(** Engine constructors call this.  [kind] names the engine family for
    counters and spans ("cop", "bdd", ...); [label] is the human
    description.  [run_subset] receives a validated plan and is the
    engine's only evaluation: {!probs} runs it on an all-faults plan, so
    its result for any subset must equal gathering those entries from the
    all-faults result bit for bit.  The optional [cofactor_pair] is the
    engine's fused two-cofactor evaluation; it must be bit-identical to
    evaluating [run_subset] twice at [x] with coordinate [input] set to
    0.0 and 1.0, and must not mutate [x]. *)

val plan : t -> int array -> plan
(** [plan o subset] prepares (or retrieves) the cone masks for a fault
    subset — element [j] of subset-query results corresponds to fault
    index [subset.(j)].  Plans are cached keyed on the physical identity
    of [subset] (a small MRU list, so alternating between a few subsets
    does not thrash); reuse one index array across calls, as
    {!Rt_optprob.Optimize.run} does per sweep, to amortise planning.
    Raises [Invalid_argument] on out-of-range fault indices. *)

(** Plan accessors, for engine implementations (treat the returned arrays
    as read-only — they are the plan's own state). *)

val subset : plan -> int array
(** The fault-index array the plan was built from. *)

val selected : plan -> Rt_fault.Fault.t array
(** The selected faults, in subset order. *)

val obs_mask : plan -> bool array
(** Union of the selected faults' transitive fanout cones (fanout-closed):
    the nodes whose observability the estimate needs. *)

val sp_mask : plan -> bool array
(** Fanin closure of the masked nodes and their side pins: the nodes whose
    signal probability the evaluation reads.  Fanin-closed by
    construction. *)

val probs : t -> float array -> float array
(** [probs o x] is [p_f(X)] for each fault, in fault-array order: the
    engine's subset query on an all-faults plan, built once per oracle on
    first use and kept outside the {!plan} cache (so [detect.plan.*]
    counts only subset planning).  Counted and timed as a full query
    ([oracle.queries.<kind>], [oracle.latency_us.full.<kind>]). *)

val probs_subset : t -> int array -> float array -> float array
(** [probs_subset o subset x] is [probs_plan o (plan o subset) x]. *)

val probs_plan : t -> plan -> float array -> float array
(** Subset query against a prepared plan: equals gathering the selected
    entries from {!probs} bit-exactly, while doing only the subset's share
    of the work. *)

val cofactor_pair : t -> plan -> input:int -> x:float array -> float array * float array
(** [cofactor_pair o p ~input ~x] is
    [(probs_plan o p x0, probs_plan o p x1)] where [x0]/[x1] are [x] with
    coordinate [input] replaced by 0.0 / 1.0 — computed in one fused
    evaluation when the engine supports it.  [x] itself is never mutated.
    Bit-identical to the two independent queries by contract. *)

val faults : t -> Rt_fault.Fault.t array
val circuit : t -> Rt_circuit.Netlist.t

val kind : t -> string
(** The engine family name used in this oracle's counters and spans. *)

val describe : t -> string

val exact_mask : t -> bool array
(** Per fault: whether the value returned by {!probs} is exact. *)

val proven_redundant : t -> bool array
(** Per fault: an exact engine proved the fault undetectable.  Estimators
    return all-false. *)
