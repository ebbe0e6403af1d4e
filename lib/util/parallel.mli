(** Chunked multicore helpers on the persistent domain {!Pool} (OCaml 5,
    no extra deps).

    Work over an index range is split into [jobs] contiguous chunks
    ({!region}, {!map_region}) or claimed in grain-sized slices
    ({!sweep}); either way it runs on the process-wide {!Pool}, so
    domains are spawned once per process and parked between regions.
    With [jobs = 1] the callback runs inline on the caller — bit-identical
    to a serial loop — so every [?jobs] parameter in the library defaults
    to the serial behaviour. *)

val max_jobs : int

val default_jobs : unit -> int
(** The [OPTPROB_JOBS] environment variable clamped to [1 .. max_jobs];
    1 when unset or unparsable. *)

val resolve_jobs : int option -> int
(** [resolve_jobs jobs] is [jobs] clamped to [1 .. max_jobs] when given,
    {!default_jobs} otherwise — the policy behind every [?jobs] argument. *)

val hardware_jobs : unit -> int
(** [Domain.recommended_domain_count] clamped to [max_jobs] — the most
    domains that can actually run concurrently on this machine. *)

val chunk_bounds : jobs:int -> n:int -> int -> int * int
(** [chunk_bounds ~jobs ~n k] is the half-open range [(lo, hi)] of chunk
    [k]: contiguous, ascending, sizes differing by at most one. *)

val region :
  ?min_per_chunk:int ->
  ?label:string ->
  ?seq_below:int ->
  jobs:int -> n:int -> (chunk:int -> lo:int -> hi:int -> unit) -> unit
(** The policy'd parallel entry point used by the library's kernels: run
    [f] over [0, n) split into {!chunk_bounds} chunks on the persistent
    {!Pool}.  [min_per_chunk] (default 1) caps the job count so no chunk
    falls below that many items.  The effective job count is also
    clamped to {!hardware_jobs} (more domains than cores only adds
    overhead), and when [n < seq_below] (default 0) the work runs
    sequentially on the caller — per-region dispatch costs dwarf small
    workloads.  Each chunk is called exactly once with its own [~chunk]
    index and timed as an [Rt_obs] span ["<label>.chunk"] on its
    executing domain (default label ["parallel"]); the whole region is
    wrapped in a span named [label].  Falls back to sequential while
    [jobs > 1] increment the ["parallel.seq_fallbacks"] counter.  The
    first exception raised by a chunk is re-raised on the caller after
    every participant has left the region.  Regions nested inside a pool
    worker run inline and sequentially.  Results never depend on the
    effective job count. *)

val map_region :
  ?min_per_chunk:int ->
  ?label:string ->
  ?seq_below:int -> jobs:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** As {!region} but collecting chunk results in chunk order.  The
    chunking itself (hence the partial results) depends on the effective
    job count — callers must merge in a way that is chunking-independent
    (e.g. sum partial accumulators). *)

val sweep :
  ?grain:int ->
  ?label:string ->
  ?seq_below:int ->
  jobs:int -> n:int -> (worker:int -> lo:int -> hi:int -> unit) -> unit
(** Item-level dynamic scheduling over [0, n) on the persistent {!Pool},
    for kernels whose per-item cost is highly variable (e.g. per-fault
    event propagation).  [f ~worker ~lo ~hi] is called once per slice,
    the consecutive [grain]-item ranges of [0, n) (default 16); [worker]
    is the executing participant's slot in [0, jobs_eff) and may index
    per-worker scratch state — unlike {!region}, the same [worker] value
    sees many slices and which worker runs which slice depends on
    scheduling, so per-item results must be written to item-indexed (not
    worker-indexed) locations.  Job-count policy ([seq_below], hardware
    clamp, seq fallback counting) matches {!region}. *)
