module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Cone = Rt_circuit.Cone
module Fault = Rt_fault.Fault
module Bits = Rt_util.Bits
module BA1 = Bigarray.Array1

type stats = {
  faults : Fault.t array;
  first_detect : int array;
  detect_count : int array;
  patterns_run : int;
}

(* The datapath is W x 64-bit wide: each good-machine pass simulates a
   [Pattern.block] of up to [W] 64-pattern words, and each fault is
   injected once per block, propagating all W words together through its
   fanout cone.  Detection bookkeeping (first_detect / detect_count /
   drop order) replays serially from the per-fault detection rows *word
   by word* — a fault detected in word [w] leaves the live set before
   word [w+1] is accounted, and a block's trailing words are not
   accounted once the live set empties — so the returned stats are
   bit-identical to W=1 (one word per block) for every (jobs,
   block_words) combination.  The only W-dependence is source consumption: a block is
   filled before simulating, so when dropping empties the live set
   mid-block up to [W - 1] already-pulled batches go unused.  [jobs > 1]
   shards the per-fault work across pool domains (each with its own
   workspace) in grain-sized slices off the pool's shared cursor;
   per-fault detection rows land in a shared table at fault-indexed
   rows, so scheduling never touches the replay. *)

(* Workspace reused across faults within a block; one per worker slot
   when the per-fault work is sharded with [jobs > 1]. *)
type ws = {
  c : Netlist.t;
  w : int;  (* lane words per block *)
  fval : Pattern.words;  (* node-major faulty values, size * w *)
  dirty : bool array;
  queued : bool array;
  heap : Rt_util.Int_heap.t;
  mutable touched : int list;
  args : int64 array array;  (* scratch per arity, indexed by arity *)
  out : int64 array;  (* scratch gate evaluation, length w *)
  det : int64 array;  (* scratch detection row, length w *)
}

let make_ws ~words c =
  let n = Netlist.size c in
  let max_arity =
    let m = ref 1 in
    Netlist.iter_gates c (fun g -> m := max !m (Array.length (Netlist.fanin c g)));
    !m
  in
  let fval = BA1.create Bigarray.int64 Bigarray.c_layout (max 1 (n * words)) in
  BA1.fill fval 0L;
  { c;
    w = words;
    fval;
    dirty = Array.make n false;
    queued = Array.make n false;
    heap = Rt_util.Int_heap.create ();
    touched = [];
    args = Array.init (max_arity + 1) (fun a -> Array.make (max 1 a) 0L);
    out = Array.make words 0L;
    det = Array.make words 0L }

let reset ws =
  List.iter
    (fun n ->
      ws.dirty.(n) <- false;
      ws.queued.(n) <- false)
    ws.touched;
  ws.touched <- [];
  Rt_util.Int_heap.clear ws.heap

(* Evaluate gate [g] into [ws.out], reading faulty values for dirty
   fanins and good values otherwise, word by word. *)
let eval_gate ws good g ~pin_override =
  let fi = Netlist.fanin ws.c g in
  let arity = Array.length fi in
  let args = ws.args.(arity) in
  let kind = Netlist.kind ws.c g in
  for k = 0 to ws.w - 1 do
    for j = 0 to arity - 1 do
      let s = fi.(j) in
      args.(j) <-
        (if ws.dirty.(s) then BA1.unsafe_get ws.fval ((s * ws.w) + k)
         else BA1.unsafe_get good ((s * ws.w) + k))
    done;
    (match pin_override with
     | Some (j, v) -> args.(j) <- (if v then -1L else 0L)
     | None -> ());
    ws.out.(k) <- Gate.eval_words kind args
  done

(* Whether [ws.out] differs from the good value of [n] in any valid lane. *)
let out_differs ws good ~lanes n =
  let differs = ref false in
  for k = 0 to ws.w - 1 do
    if
      (not !differs)
      && Int64.logand (Int64.logxor ws.out.(k) (BA1.unsafe_get good ((n * ws.w) + k))) lanes.(k) <> 0L
    then differs := true
  done;
  !differs

let push_fanouts ws n =
  Array.iter
    (fun r ->
      if not ws.queued.(r) then begin
        ws.queued.(r) <- true;
        ws.touched <- r :: ws.touched;
        Rt_util.Int_heap.push ws.heap r
      end)
    (Netlist.fanout ws.c n)

let mark_dirty_out ws n =
  for k = 0 to ws.w - 1 do
    BA1.unsafe_set ws.fval ((n * ws.w) + k) ws.out.(k)
  done;
  if not ws.dirty.(n) then begin
    ws.dirty.(n) <- true;
    if not ws.queued.(n) then ws.touched <- n :: ws.touched
  end

(* Computes the per-word detection row for one fault on the current
   block into [ws.det].  [good] is the fault-free block simulation,
   shared read-only across domains; [lanes.(k)] masks word [k]'s valid
   lanes.  The block's event frontier is the union of the per-word
   frontiers (a node is re-evaluated if *any* word differs, and its
   stored faulty row is exact for every word), so each word's masked
   output differences — hence the stats replayed from them — equal the
   W=1 computation exactly. *)
let inject_and_propagate ws ~good ~lanes fault =
  let c = ws.c in
  reset ws;
  Array.fill ws.det 0 ws.w 0L;
  let seeded =
    match fault.Fault.site with
    | Fault.Stem n ->
      let v = if fault.Fault.stuck then -1L else 0L in
      Array.fill ws.out 0 ws.w v;
      if not (out_differs ws good ~lanes n) then false
      else begin
        mark_dirty_out ws n;
        push_fanouts ws n;
        true
      end
    | Fault.Branch (g, k) ->
      eval_gate ws good g ~pin_override:(Some (k, fault.Fault.stuck));
      if not (out_differs ws good ~lanes g) then false
      else begin
        mark_dirty_out ws g;
        push_fanouts ws g;
        true
      end
  in
  if seeded then begin
    (* Every push targets a strictly larger id, so each node is popped at
       most once, with all its fanins final — no iteration needed.  The
       fault site itself is the seed and is never re-queued. *)
    while not (Rt_util.Int_heap.is_empty ws.heap) do
      let n = Rt_util.Int_heap.pop ws.heap in
      if ws.queued.(n) then begin
        ws.queued.(n) <- false;
        eval_gate ws good n ~pin_override:None;
        if out_differs ws good ~lanes n then begin
          mark_dirty_out ws n;
          push_fanouts ws n
        end
      end
    done;
    Array.iter
      (fun o ->
        if ws.dirty.(o) then
          for k = 0 to ws.w - 1 do
            ws.det.(k) <-
              Int64.logor ws.det.(k)
                (Int64.logand
                   (Int64.logxor (BA1.unsafe_get ws.fval ((o * ws.w) + k)) (BA1.unsafe_get good ((o * ws.w) + k)))
                   lanes.(k))
          done)
      (Netlist.outputs c)
  end

let c_batches = Rt_obs.counter "ppsfp.batches"
let c_patterns = Rt_obs.counter "ppsfp.patterns"
let c_dropped = Rt_obs.counter "ppsfp.faults_dropped"
let h_batch = Rt_obs.histogram "ppsfp.batch_us"

(* Undetected-fault population after the latest batch: the shrinking
   workload behind the pool's utilization. *)
let g_live = Rt_obs.gauge "ppsfp.live_faults"

(* Sub-millisecond blocks are not worth parallel dispatch
   (Parallel.sweep also clamps to the core count); at ~2-10 us per fault
   propagation this threshold puts the crossover near half a millisecond
   of work. *)
let ppsfp_seq_below = 256

(* Schedule faults so consecutive ones feed the same primary-output
   cone: stable order by (nearest reachable output, site id).  A worker
   draining a contiguous slice then repeatedly propagates through
   overlapping gate ranges, keeping its workspace rows cache-warm.
   Stats are accumulated per fault index, so the schedule never affects
   results. *)
let cone_order c faults =
  let nearest = Cone.nearest_output c in
  let site f =
    match f.Fault.site with Fault.Stem n -> n | Fault.Branch (g, _) -> g
  in
  let nf = Array.length faults in
  let key = Array.map (fun f -> (nearest.(site f), site f)) faults in
  let order = Array.init nf Fun.id in
  Array.sort
    (fun a b ->
      let d = compare key.(a) key.(b) in
      if d <> 0 then d else compare a b)
    order;
  order

let lanes_of_block blk =
  Array.init blk.Pattern.words (fun k ->
      if k < blk.Pattern.filled then Pattern.word_mask blk.Pattern.counts.(k) else 0L)

(* What the response variant adds to the block loop: [capture] runs on
   the worker right after a fault's propagation, while the workspace
   still holds its faulty output rows, and [on_detect] runs in the
   replay for every word that detects a fault, with [pos] the stream
   index of the word's first lane. *)
type hooks = {
  capture : ws -> good:Pattern.words -> lanes:int64 array -> int -> unit;
  on_detect : int -> word:int -> cnt:int -> pos:int -> int64 -> unit;
}

(* The one PPSFP block loop behind both entry points: fill a block, run
   the good machine, sweep the live faults' propagation across the pool
   (each fault's detection row lands in [table] at its fault-indexed row
   — disjoint rows, so sharding is race-free), replay detections serially
   word by word, then compact the live set. *)
let run ~span ~label ?hooks ?jobs ?block_words ~drop c faults ~source ~n_patterns =
  let jobs = Rt_util.Parallel.resolve_jobs jobs in
  let words = Pattern.resolve_block_words block_words in
  let nf = Array.length faults in
  let first_detect = Array.make nf (-1) in
  let detect_count = Array.make nf 0 in
  let sim = Logic_sim.create ~words c in
  let wss = Array.init jobs (fun _ -> make_ws ~words c) in
  let blk = Pattern.make_block ~n_inputs:(Array.length (Netlist.inputs c)) ~words in
  let table = BA1.create Bigarray.int64 Bigarray.c_layout (max 1 (nf * words)) in
  let live = cone_order c faults in
  let n_live = ref nf in
  let base = ref 0 in
  Rt_obs.with_span ~cat:"sim" span @@ fun () ->
  while !base < n_patterns && (!n_live > 0 || not drop) do
    let t_batch = Rt_obs.span_begin () in
    Pattern.fill_block source blk ~needed:(n_patterns - !base);
    let lanes = lanes_of_block blk in
    Logic_sim.run sim blk;
    let good = Logic_sim.values sim in
    Rt_util.Parallel.sweep ~label ~seq_below:ppsfp_seq_below ~jobs ~n:!n_live
      (fun ~worker ~lo ~hi ->
        let ws = wss.(worker) in
        for p = lo to hi - 1 do
          let fi = live.(p) in
          inject_and_propagate ws ~good ~lanes faults.(fi);
          for k = 0 to ws.w - 1 do
            BA1.unsafe_set table ((fi * ws.w) + k) ws.det.(k)
          done;
          match hooks with Some h -> h.capture ws ~good ~lanes fi | None -> ()
        done);
    (* Serial word-by-word replay: within a word, detections are lane-
       parallel; between words, drops take effect, exactly as if each
       word had been its own batch. *)
    let n0 = !n_live in
    let alive = ref n0 in
    let processed = ref 0 in
    let w = ref 0 in
    while !w < blk.Pattern.filled && (!alive > 0 || not drop) do
      for p = 0 to n0 - 1 do
        let fi = live.(p) in
        if not (drop && first_detect.(fi) >= 0) then begin
          let d = BA1.unsafe_get table ((fi * words) + !w) in
          if not (Int64.equal d 0L) then begin
            if first_detect.(fi) < 0 then
              first_detect.(fi) <- !base + !processed + Bits.ctz d;
            detect_count.(fi) <- detect_count.(fi) + Bits.popcount d;
            (match hooks with
             | Some h ->
               h.on_detect fi ~word:!w ~cnt:blk.Pattern.counts.(!w) ~pos:(!base + !processed) d
             | None -> ());
            if drop then decr alive
          end
        end
      done;
      processed := !processed + blk.Pattern.counts.(!w);
      incr w
    done;
    if drop then begin
      (* Compact the live set in place, preserving cone order. *)
      let k = ref 0 in
      for p = 0 to n0 - 1 do
        let fi = live.(p) in
        if first_detect.(fi) < 0 then begin
          live.(!k) <- fi;
          incr k
        end
      done;
      n_live := !k
    end;
    Rt_obs.incr c_batches;
    Rt_obs.add c_patterns !processed;
    Rt_obs.add c_dropped (n0 - !n_live);
    Rt_obs.gauge_set g_live (Float.of_int !n_live);
    Rt_obs.span_end_h ~cat:"sim" "ppsfp.batch" h_batch t_batch;
    base := !base + !processed
  done;
  { faults; first_detect; detect_count; patterns_run = !base }

let simulate ?jobs ?block_words ?(drop = true) c faults ~source ~n_patterns =
  run ~span:"fault_sim" ~label:"ppsfp" ?jobs ?block_words ~drop c faults ~source ~n_patterns

let simulate_with_responses ?jobs ?block_words ?(drop = false) c faults ~source ~n_patterns =
  let words = Pattern.resolve_block_words block_words in
  let nf = Array.length faults in
  let responses = Array.make nf [] in
  (* Per detecting fault the output-difference words must be captured
     before the workspace is reused for the next fault; rows are
     allocated only on detection, so the table stays sparse. *)
  let diffs = Array.make nf [||] in
  let outputs = Netlist.outputs c in
  let n_out = min 64 (Array.length outputs) in
  let capture ws ~good ~lanes fi =
    diffs.(fi) <-
      (if Array.for_all (Int64.equal 0L) ws.det then [||]
       else
         Array.init (n_out * words) (fun i ->
             let o = outputs.(i / words) and k = i mod words in
             if ws.dirty.(o) then
               Int64.logand
                 (Int64.logxor (BA1.unsafe_get ws.fval ((o * words) + k)) (BA1.unsafe_get good ((o * words) + k)))
                 lanes.(k)
             else 0L))
  in
  (* Decode each detecting lane of word [word] into its per-output
     difference word. *)
  let on_detect fi ~word ~cnt ~pos d =
    let row = diffs.(fi) in
    for lane = 0 to cnt - 1 do
      if Int64.logand (Int64.shift_right_logical d lane) 1L <> 0L then begin
        let dw = ref 0L in
        for k = 0 to n_out - 1 do
          if Int64.logand (Int64.shift_right_logical row.((k * words) + word) lane) 1L <> 0L then
            dw := Int64.logor !dw (Int64.shift_left 1L k)
        done;
        responses.(fi) <- (pos + lane, !dw) :: responses.(fi)
      end
    done
  in
  let stats =
    run ~span:"fault_sim.responses" ~label:"ppsfp.responses" ~hooks:{ capture; on_detect } ?jobs
      ~block_words:words ~drop c faults ~source ~n_patterns
  in
  (stats, Array.map List.rev responses)

let detects c f pattern =
  let good = Netlist.eval c pattern in
  let n = Netlist.size c in
  let bad = Array.make n false in
  for i = 0 to n - 1 do
    let v =
      match Netlist.kind c i with
      | Gate.Input -> pattern.(Netlist.input_index c i)
      | k ->
        let fi = Netlist.fanin c i in
        let args = Array.map (fun j -> bad.(j)) fi in
        let args =
          match f.Fault.site with
          | Fault.Branch (g, pin) when g = i ->
            let args = Array.copy args in
            args.(pin) <- f.Fault.stuck;
            args
          | Fault.Branch _ | Fault.Stem _ -> args
        in
        Gate.eval k args
    in
    bad.(i) <- (match f.Fault.site with Fault.Stem s when s = i -> f.Fault.stuck | _ -> v)
  done;
  Array.exists (fun o -> good.(o) <> bad.(o)) (Netlist.outputs c)

let coverage s =
  let nf = Array.length s.faults in
  if nf = 0 then 1.0
  else begin
    let d = Array.fold_left (fun acc fd -> if fd >= 0 then acc + 1 else acc) 0 s.first_detect in
    Float.of_int d /. Float.of_int nf
  end

let coverage_at s k =
  let nf = Array.length s.faults in
  if nf = 0 then 1.0
  else begin
    let d =
      Array.fold_left (fun acc fd -> if fd >= 0 && fd < k then acc + 1 else acc) 0 s.first_detect
    in
    Float.of_int d /. Float.of_int nf
  end

let coverage_curve s ~points = List.map (fun k -> (k, coverage_at s k)) points

let undetected s =
  s.faults |> Array.to_list
  |> List.filteri (fun i _ -> s.first_detect.(i) < 0)
  |> Array.of_list
