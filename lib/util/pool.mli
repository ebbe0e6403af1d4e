(** Persistent domain pool with one shared cursor per region.

    Domains are spawned once (lazily, on the first region that needs
    them) and parked between parallel regions, so a region costs one
    mutex round trip and a broadcast rather than a
    [Domain.spawn]/[Domain.join] per worker.

    A region over [0, n) items has one atomic cursor: every participant,
    the submitter included, claims the next [grain] items with
    [Atomic.fetch_and_add] until the range is used up, so a participant
    that finishes early simply claims more.

    {2 Lanes and telemetry}

    Every worker domain is pinned to one participant slot ("lane") for
    its whole life — the [i]-th domain spawned is lane [i + 1], the
    submitting domain is lane 0 — so per-domain telemetry has a stable
    identity.  Global counters: [parallel.spawns] counts domain spawns
    (constant per process once the pool is grown), [pool.tasks] counts
    executed slices.  Per lane [k]: [pool.d<k>.tasks] (slices lane [k]
    ran) and [pool.d<k>.parked_us] (cumulative idle time between
    regions).  When recording is on, each slice is a trace span
    ["<label>.slice"] on the executing domain's named track
    ([pool.d<k>]), and park intervals appear as ["pool.parked"] spans
    with ["pool.unpark"] instants. *)

type t

val create : unit -> t
(** A new pool with no domains; they are spawned on demand by {!run}. *)

val default : unit -> t
(** The process-wide pool used by [Parallel.region]; created on first
    use and shut down via [at_exit]. *)

val run :
  ?grain:int -> ?label:string -> t -> participants:int -> n:int ->
  (int -> int -> int -> unit) -> unit
(** [run t ~participants ~n body] executes [body worker lo hi] over
    disjoint slices covering [0, n), on the calling domain plus up to
    [participants - 1] pool domains, growing the pool if needed.

    [worker] is the executing participant's lane in
    [0, participants) — unique among concurrent calls, so it can index
    per-worker scratch state.  Slices are the consecutive [grain]-item
    ranges of [0, n) (default 16; the last may be shorter); which worker
    runs which slice depends on scheduling.  [label] (default ["pool"])
    names the per-slice trace spans ["<label>.slice"].  Returns when
    every item has run.  If any [body] call raises, no further slice is
    claimed and the first exception is re-raised here.  Calls from
    inside a running [body] (nested regions) execute [body 0 0 n]
    inline. *)

val in_worker : unit -> bool
(** True while the calling domain is executing inside a {!run} body. *)

val size : t -> int
(** Number of domains currently parked in or working for the pool. *)

val shutdown : t -> unit
(** Wake and join every pool domain.  Subsequent parallel {!run} calls
    on the pool raise [Invalid_argument]. *)
