(* Chunked Domain-based parallelism on the persistent [Pool].

   [region]/[map_region]/[sweep] are the policy'd entry points the
   library's kernels use: they clamp to the machine's core count, fall
   back to sequential execution below a work-size threshold, and execute
   on the process-wide pool, so [Domain.spawn] is paid once per process
   instead of once per region.  [jobs = 1] stays on the exact serial code
   path, and every chunk is timed as an [Rt_obs] span on its executing
   domain. *)

let max_jobs = 64

let default_jobs () =
  match Sys.getenv_opt "OPTPROB_JOBS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j when j >= 1 -> min j max_jobs
     | Some _ | None -> 1)

let resolve_jobs jobs =
  match jobs with
  | Some j when j >= 1 -> min j max_jobs
  | Some _ -> 1
  | None -> default_jobs ()

let hardware_jobs () = min max_jobs (Domain.recommended_domain_count ())

(* Contiguous chunk [lo, hi) of [0, n) for chunk index k of [jobs]. *)
let chunk_bounds ~jobs ~n k =
  let base = n / jobs and rem = n mod jobs in
  let lo = (k * base) + min k rem in
  let hi = lo + base + (if k < rem then 1 else 0) in
  (lo, hi)

let c_chunks = Rt_obs.counter "parallel.chunks"
let c_seq_fallbacks = Rt_obs.counter "parallel.seq_fallbacks"

(* Cap the job count so no chunk falls below [min_per_chunk] items. *)
let clamp_chunk_jobs ~min_per_chunk ~jobs ~n =
  max 1 (min jobs (max 1 (n / max 1 min_per_chunk)))

(* Registered once per region on the caller's domain (registration takes
   the sink mutex; the per-chunk observe itself is lock-free), so the
   chunk-time distribution — not just the total — survives into the
   metrics snapshot and imbalance shows up as a wide p50..p99 spread. *)
let timed_chunk ~label f =
  let hist =
    if Rt_obs.enabled () then Some (Rt_obs.histogram (label ^ ".chunk_us")) else None
  in
  fun ~chunk ~lo ~hi ->
    let t0 = Rt_obs.span_begin () in
    Rt_obs.incr c_chunks;
    f ~chunk ~lo ~hi;
    match hist with
    | Some h -> Rt_obs.span_end_h ~cat:"parallel" (label ^ ".chunk") h t0
    | None -> Rt_obs.span_end ~cat:"parallel" (label ^ ".chunk") t0

(* Effective job count for a policy'd region: never more domains than the
   hardware offers, and strictly sequential below the work-size threshold —
   a region's dispatch costs more than a small chunk's work (the measured
   ppsfp-on-one-core case was 4x slower at jobs=4 than serial). *)
let region_jobs ~seq_below ~jobs ~n =
  let requested = max 1 jobs in
  let eff = if n < seq_below then 1 else min requested (hardware_jobs ()) in
  if requested > 1 && eff = 1 then Rt_obs.incr c_seq_fallbacks;
  eff

(* Run [jobs] chunks on the persistent pool.  One pool item per chunk,
   grain 1: each participant claims whole chunks off the shared cursor,
   so a slow starter never stalls the region.  Each chunk runs exactly
   once with its own [~chunk] index, so per-chunk workspaces and
   chunk-ordered merges do not depend on scheduling. *)
let pool_chunks ~label ~jobs ~n f =
  let timed = timed_chunk ~label f in
  if jobs = 1 || n = 0 then (if n > 0 then timed ~chunk:0 ~lo:0 ~hi:n)
  else
    Pool.run ~label (Pool.default ()) ~grain:1 ~participants:jobs ~n:jobs
      (fun _worker klo khi ->
        for k = klo to khi - 1 do
          let lo, hi = chunk_bounds ~jobs ~n k in
          if hi > lo then timed ~chunk:k ~lo ~hi
        done)

let region_chunk_jobs ?(min_per_chunk = 1) ~seq_below ~jobs ~n () =
  if n < 0 then invalid_arg "Parallel.region: negative n";
  let jobs = region_jobs ~seq_below ~jobs ~n in
  clamp_chunk_jobs ~min_per_chunk ~jobs ~n

let region ?min_per_chunk ?(label = "parallel") ?(seq_below = 0) ~jobs ~n f =
  let jobs = region_chunk_jobs ?min_per_chunk ~seq_below ~jobs ~n () in
  Rt_obs.with_span ~cat:"parallel" label (fun () -> pool_chunks ~label ~jobs ~n f)

let map_region ?min_per_chunk ?(label = "parallel") ?(seq_below = 0) ~jobs ~n f =
  let jobs = region_chunk_jobs ?min_per_chunk ~seq_below ~jobs ~n () in
  let out = Array.make jobs None in
  Rt_obs.with_span ~cat:"parallel" label (fun () ->
      pool_chunks ~label ~jobs ~n (fun ~chunk ~lo ~hi -> out.(chunk) <- Some (f ~lo ~hi)));
  Array.to_list out |> List.filter_map Fun.id

let sweep ?grain ?(label = "parallel.sweep") ?(seq_below = 0) ~jobs ~n f =
  if n < 0 then invalid_arg "Parallel.sweep: negative n";
  let jobs = region_jobs ~seq_below ~jobs ~n in
  Rt_obs.with_span ~cat:"parallel" label (fun () ->
      if jobs = 1 || n = 0 then (if n > 0 then f ~worker:0 ~lo:0 ~hi:n)
      else
        Pool.run ?grain ~label (Pool.default ()) ~participants:jobs ~n
          (fun worker lo hi -> f ~worker ~lo ~hi))
