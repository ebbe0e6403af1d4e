(** Fault detection probability oracles — the paper's ANALYSIS step.

    The optimizer only needs a function [X -> p_f(X)] for the fault list;
    the paper uses PROTEST and remarks that "with slight modifications
    PREDICT or STAFAN will presumably work as well".  This module offers
    five interchangeable oracles behind one interface:

    - [Cop]: analytic activation x observability estimate (fast; playing
      PROTEST's role);
    - [Conditioned]: COP Shannon-expanded over the worst reconvergence
      sources (PREDICT's role);
    - [Bdd_exact]: exact detection probabilities from per-fault boolean
      difference BDDs built once and re-evaluated per [X] in linear time;
      falls back to [Cop] for faults whose BDD exceeds the node limit;
      the pipeline's default engine ([bdd] in [Rt_pipeline.Config]);
    - [Stafan]: counting-based estimate from fresh weighted simulation;
    - [Monte_carlo]: direct fault-simulation estimate.

    Every engine is constructed as a value of the engine-agnostic
    {!Oracle.t} protocol ([oracle] below is an alias), so the protocol's
    query surface — {!Oracle.plan}, {!Oracle.probs_plan},
    {!Oracle.cofactor_pair} — is available on any oracle built here.  Each
    constructor registers one subset evaluation — {!probs} runs it on an
    all-faults plan — and the engine's fused cofactor implementation when
    it has one (incremental damage-cone re-evaluation for COP and serial
    conditioned COP, a paired traversal for the exact BDDs, a recorded and
    replayed pattern base for STAFAN / Monte-Carlo). *)

type engine =
  | Cop
  | Conditioned of { max_vars : int }
      (** PREDICT-style ([ABS86]): the COP estimate Shannon-expanded over
          the [max_vars] highest-fanout inputs (cost [2^max_vars] COP
          sweeps per call). *)
  | Bdd_exact of { node_limit : int }
  | Stafan of { n_patterns : int; seed : int }
  | Monte_carlo of { n_patterns : int; seed : int }

type oracle = Oracle.t

val make : ?jobs:int -> engine -> Rt_circuit.Netlist.t -> Rt_fault.Fault.t array -> oracle
(** Performs all per-circuit precomputation (e.g. BDD construction) so that
    repeated {!probs} calls are cheap.  [jobs] (default: the [OPTPROB_JOBS]
    environment variable, else 1) shards per-fault and per-assignment work
    across that many domains in the COP, conditioned and Monte-Carlo
    engines; [jobs = 1] is bit-identical to the serial implementation. *)

val probs : oracle -> float array -> float array
(** [probs o x] is [p_f(X)] for each fault, in fault-array order. *)

val probs_subset : oracle -> int array -> float array -> float array
(** [probs_subset o subset x] is [p_f(X)] for [subset]'s faults only —
    element [j] corresponds to fault index [subset.(j)] — and equals
    gathering those entries from {!probs} while doing only the subset's
    share of the work: COP/conditioned restrict their signal-probability
    and observability sweeps to the union of the selected faults' cones,
    the exact engine evaluates only the selected detection BDDs (skipping
    whole generations none of them landed in), STAFAN restricts its
    observability sweep, and Monte-Carlo simulates only the selected
    faults.  This is the paper's PREPARE step: OPTIMIZE needs the two
    cofactor probabilities of the [nf] {e hardest} faults, never the full
    universe.  The per-subset cone masks are cached keyed on the physical
    identity of [subset] — reuse one index array across calls (as
    {!Rt_optprob.Optimize.run} does per sweep) to amortise planning. *)

val faults : oracle -> Rt_fault.Fault.t array
val circuit : oracle -> Rt_circuit.Netlist.t
val describe : oracle -> string

val exact_mask : oracle -> bool array
(** Per fault: whether the value returned by {!probs} is exact. *)

val proven_redundant : oracle -> bool array
(** Per fault: an exact engine proved the fault undetectable (its boolean
    difference is the zero function).  Estimators return all-false. *)

val injection : Rt_fault.Fault.t -> Rt_bdd.Bdd_circuit.injection
(** The BDD-level injection corresponding to a stuck-at fault. *)
