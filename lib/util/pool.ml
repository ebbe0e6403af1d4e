(* Persistent domain pool with one shared cursor per region.

   Domains are spawned once (lazily, growing to the largest participant
   count ever requested) and parked on a condition variable between
   regions, so a region submit costs one mutex round trip and a broadcast
   instead of a [Domain.spawn] + [Domain.join] per worker.

   Scheduling: a region over [0, n) has one atomic cursor.  Every
   participant, the submitter included, claims the next [grain] items with
   [Atomic.fetch_and_add] until the cursor passes [n].  Fault-propagation
   cost is highly variable, so a participant that finishes early simply
   claims more; and since claims walk the range in order, neighbouring
   slices run close together in time, which the cone-ordered fault
   schedule in Fault_sim turns into cache locality.

   Lanes: each worker domain is pinned to one participant slot for its
   whole life — the domain spawned [i]-th always takes slot [i + 1] (its
   "lane"), and the submitting domain is always lane 0.  A region with
   [participants = p] is joined by exactly the workers whose lane is below
   [p]; a worker that wakes too late to join simply finds the range used
   up by the others.  The [worker] id passed to the body is the lane —
   unique per concurrent participant — so per-worker scratch state is
   race-free, and [pool.d<k>.*] counters and the [pool.d<k>] trace track
   always describe the same domain.

   Completion: participants join a job under the pool mutex while it is
   published and count themselves in [active].  The submitter drains the
   cursor, unpublishes the job, and waits for [active] to reach zero;
   every claimed slice belongs to a counted participant, so by then every
   item has run (or been skipped after a failure).

   Exceptions: the first failure is kept, the region is aborted (no further
   slices are claimed), and the exception is re-raised on the submitting
   domain after every participant has left the job.

   Nesting: a body that submits another region would deadlock on the
   submit lock, so submissions from inside a participant run the body
   inline and sequentially. *)

type job = {
  n : int;
  grain : int;
  participants : int;
  label : string;  (* names the per-slice trace spans: "<label>.slice" *)
  next : int Atomic.t;  (* the shared cursor *)
  body : int -> int -> int -> unit;  (* worker lo hi *)
  active : int Atomic.t;  (* participants currently inside the job *)
  failure : exn option Atomic.t;
}

type t = {
  m : Mutex.t;
  cv : Condition.t;
  mutable current : job option;  (* pool mutex *)
  mutable epoch : int;  (* bumped per submit; wakes parked workers *)
  mutable domains : unit Domain.t list;
  mutable n_workers : int;
  mutable quit : bool;
  submit : Mutex.t;  (* one region at a time *)
}

let c_spawns = Rt_obs.counter "parallel.spawns"
let c_tasks = Rt_obs.counter "pool.tasks"

(* Per-lane counters, registered lazily the first time a lane is used:
   [pool.d<k>.tasks] is "slices executed by domain k" across the whole
   run, [pool.d<k>.parked_us] its cumulative idle time between regions. *)
type lane_counters = { lc_tasks : Rt_obs.counter; lc_parked_us : Rt_obs.counter }

let lane_lock = Mutex.create ()
let lane_tbl : (int, lane_counters) Hashtbl.t = Hashtbl.create 16

let lane_counters k =
  Mutex.lock lane_lock;
  let c =
    match Hashtbl.find_opt lane_tbl k with
    | Some c -> c
    | None ->
      let mk s = Rt_obs.counter (Printf.sprintf "pool.d%d.%s" k s) in
      let c = { lc_tasks = mk "tasks"; lc_parked_us = mk "parked_us" } in
      Hashtbl.add lane_tbl k c;
      c
  in
  Mutex.unlock lane_lock;
  c

(* True on any domain currently executing inside a pool region (both pool
   workers and a submitting domain while it participates). *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_worker_key

(* Claim and run slices until the range is used up or the job fails.
   When recording is on, every slice is a trace span on the executing
   domain's track. *)
let participate job ~lane =
  let prev = Domain.DLS.get in_worker_key in
  Domain.DLS.set in_worker_key true;
  let lc = lane_counters lane in
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set in_worker_key prev)
    (fun () ->
      let continue = ref true in
      while !continue do
        let lo = Atomic.fetch_and_add job.next job.grain in
        if lo >= job.n || Option.is_some (Atomic.get job.failure) then continue := false
        else begin
          let hi = min (lo + job.grain) job.n in
          Rt_obs.incr c_tasks;
          Rt_obs.incr lc.lc_tasks;
          let t0 = Rt_obs.span_begin () in
          (try job.body lane lo hi
           with e -> ignore (Atomic.compare_and_set job.failure None (Some e)));
          if t0 > Float.neg_infinity then Rt_obs.span_end ~cat:"pool" (job.label ^ ".slice") t0
        end
      done)

let rec worker_loop t ~lane last_epoch =
  (* The park interval runs from here to the claim decision; it shows up
     as a [pool.parked] span on this lane's track and accumulates into
     [pool.d<lane>.parked_us]. *)
  let t_park = Rt_obs.span_begin () in
  Mutex.lock t.m;
  while (not t.quit) && t.epoch = last_epoch do
    Condition.wait t.cv t.m
  done;
  if t.quit then Mutex.unlock t.m
  else begin
    let epoch = t.epoch in
    let claimed =
      match t.current with
      | Some job when lane < job.participants ->
        Atomic.incr job.active;
        Some job
      | Some _ | None -> None
    in
    Mutex.unlock t.m;
    if t_park > Float.neg_infinity then begin
      let parked = Float.max 0.0 (Rt_obs.now_us () -. t_park) in
      Rt_obs.add (lane_counters lane).lc_parked_us (int_of_float parked);
      Rt_obs.span_end ~cat:"pool" ~args:[ ("lane", string_of_int lane) ] "pool.parked" t_park;
      Rt_obs.mark
        ~fields:[ ("lane", string_of_int lane); ("parked_us", Printf.sprintf "%.0f" parked) ]
        "pool.unpark"
    end;
    (match claimed with
     | Some job ->
       participate job ~lane;
       Atomic.decr job.active
     | None -> ());
    worker_loop t ~lane epoch
  end

let create () =
  { m = Mutex.create ();
    cv = Condition.create ();
    current = None;
    epoch = 0;
    domains = [];
    n_workers = 0;
    quit = false;
    submit = Mutex.create () }

let size t = t.n_workers

(* Grow to [w] parked worker domains.  Called with [t.submit] held, so
   growth is single-writer.  The [i]-th domain spawned is lane [i + 1]
   forever (lane 0 is the submitter). *)
let ensure_workers t w =
  if t.quit then invalid_arg "Pool: pool is shut down";
  while t.n_workers < w do
    let lane = t.n_workers + 1 in
    let d =
      Domain.spawn (fun () ->
          Rt_obs.set_track_name (Printf.sprintf "pool.d%d" lane);
          worker_loop t ~lane t.epoch)
    in
    (* Spawn-epoch race: the worker captures the epoch from the shared
       record under no lock, but [t.epoch] only changes under [t.submit],
       which the grower holds — the worker either sees the current epoch
       (parks) or an older one (checks for a job, finds none, parks). *)
    t.domains <- d :: t.domains;
    t.n_workers <- t.n_workers + 1;
    Rt_obs.incr c_spawns
  done

let default_grain = 16

let run ?(grain = default_grain) ?(label = "pool") t ~participants ~n body =
  if n < 0 then invalid_arg "Pool.run: negative n";
  if participants < 1 then invalid_arg "Pool.run: participants < 1";
  if grain < 1 then invalid_arg "Pool.run: grain < 1";
  if n = 0 then ()
  else if participants = 1 || in_worker () then body 0 0 n
  else begin
    Mutex.lock t.submit;
    match
      ensure_workers t (participants - 1);
      let job =
        { n; grain; participants; label; body;
          next = Atomic.make 0;
          active = Atomic.make 1;  (* the submitter, lane 0 *)
          failure = Atomic.make None }
      in
      Mutex.lock t.m;
      t.current <- Some job;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      participate job ~lane:0;
      Atomic.decr job.active;
      (* Unpublish so no new worker joins, then wait for the joined ones
         to finish their last slices. *)
      Mutex.lock t.m;
      t.current <- None;
      Mutex.unlock t.m;
      while Atomic.get job.active > 0 do
        Domain.cpu_relax ()
      done;
      Atomic.get job.failure
    with
    | failure ->
      Mutex.unlock t.submit;
      Option.iter raise failure
    | exception e ->
      Mutex.unlock t.submit;
      raise e
  end

let shutdown t =
  Mutex.lock t.submit;
  Mutex.lock t.m;
  t.quit <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  let ds = t.domains in
  t.domains <- [];
  t.n_workers <- 0;
  Mutex.unlock t.submit;
  List.iter Domain.join ds

(* The process-wide pool behind [Parallel.region]/[Parallel.sweep], shut
   down via [at_exit] so the program never terminates with parked domains
   still alive. *)
let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create () in
      default_pool := Some p;
      at_exit (fun () ->
          Mutex.lock default_mutex;
          let q = !default_pool in
          default_pool := None;
          Mutex.unlock default_mutex;
          Option.iter shutdown q);
      p
  in
  Mutex.unlock default_mutex;
  p
