(** W x 64-lane parallel-pattern good-circuit simulation.

    One forward sweep evaluates every node over a whole {!Pattern.block}
    — up to [W * 64] patterns — with plain word operations, amortizing the
    per-gate dispatch and fanin walks over W words of sequential unboxed
    memory.  [W = 1] is a block of one word.  The workhorse under fault
    simulation, STAFAN counting and Monte-Carlo detection-probability
    estimation. *)

type t
(** A reusable workspace bound to one netlist and word count. *)

val create : ?words:int -> Rt_circuit.Netlist.t -> t
(** [words] as per {!Pattern.resolve_block_words}. *)

val run : t -> Pattern.block -> unit
(** Evaluate every node for the block (the block's word count must equal
    the workspace's; lanes beyond each word's count hold garbage — mask
    with {!Pattern.word_mask}). *)

val values : t -> Pattern.words
(** Node-major value buffer — node [n]'s word [k] at [n * W + k]; shared,
    valid until the next {!run}. *)

val value : t -> Rt_circuit.Netlist.node -> int -> int64
(** [value t n k] is node [n]'s lane word [k]. *)
