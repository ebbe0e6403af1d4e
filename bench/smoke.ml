(* CI speed smoke: three same-process speed ratios, each with its own
   threshold.

   1. On the s1 comparator under COP, the fused [Oracle.cofactor_pair]
      sweep against two [probs_subset] queries per input: fails if its
      p50 or p99 per-sweep latency is more than 1.5x the two-query one.
   2. The same fused sweep with telemetry on against telemetry off: fails
      if the best-of-rounds time is more than 1.5x (the disabled path is a
      single atomic load).
   3. ppsfp on the 8x8 multiplier (c6288ish:8), no drop, W=1 against W=8:
      fails unless the narrow side's p50 or p99 is more than 1.25x the
      wide side's.  No-drop keeps the per-pattern work identical on both
      sides, so the ratio measures the datapath, not drop luck; the width
      axis does not depend on the host's core count.

   Quantiles are the log-bucket upper bounds of [Rt_obs.hsnap_quantile],
   the numbers every run artifact reports.  Bit-identity of the fused pair
   and of ppsfp across (jobs, W) is the test suite's job, not this one's.

   Exits 1 when any gate fails.  Run with: make bench-smoke *)

module Detect = Rt_testability.Detect
module Oracle = Rt_testability.Oracle
module Pipeline = Rt_pipeline
module Pconfig = Rt_pipeline.Config

let rounds = 3
let iters = 20

(* Time [f] repeatedly; returns the best-of-rounds total and the per-call
   durations (microseconds) of every call across all rounds. *)
let time_collect f =
  let best = ref Float.infinity in
  let samples = ref [] in
  for _ = 1 to rounds do
    let t0 = Rt_util.Stats.timer_start () in
    for _ = 1 to iters do
      let t = Rt_util.Stats.timer_start () in
      f ();
      samples := Rt_util.Stats.timer_elapsed t *. 1e6 :: !samples
    done;
    let dt = Rt_util.Stats.timer_elapsed t0 in
    if dt < !best then best := dt
  done;
  (!best, Array.of_list (List.rev !samples))

(* Candidate-over-baseline ratios of the p50 and p99 latencies. *)
let quantile_ratios ~baseline ~candidate =
  let q samples p = Rt_obs.hsnap_quantile (Rt_obs.hsnap_of_samples samples) p in
  let r p = q candidate p /. q baseline p in
  (r 0.5, r 0.99)

let failed = ref false

let gate name ok detail =
  Printf.printf "  %-4s %-28s %s\n" (if ok then "ok" else "FAIL") name detail;
  if not ok then failed := true

let () =
  (* The pipeline supplies the workload: a COP analysis of s1 at a skewed
     weight vector, and the hard-fault prefix certified by NORMALIZE. *)
  let n_inputs =
    Array.length
      (Rt_circuit.Netlist.inputs (Pconfig.load_circuit (Pconfig.Builtin "s1")))
  in
  let x = Array.init n_inputs (fun i -> 0.3 +. (0.4 *. Float.of_int (i mod 2))) in
  let ctx =
    Pipeline.create
      (Pconfig.exn
         (Pconfig.make ~engine:"cop" ~weights:(Pconfig.Weights_vector x) ~circuit:"s1" ()))
  in
  let oracle = Pipeline.oracle ctx in
  let hard = (Pipeline.normalized ctx).Pipeline.value.Pipeline.hard in
  let plan = Oracle.plan oracle hard in
  let fused input = Oracle.cofactor_pair oracle plan ~input ~x in
  let two_queries input =
    let x' = Array.copy x in
    x'.(input) <- 0.0;
    let pf0 = Detect.probs_subset oracle hard x' in
    x'.(input) <- 1.0;
    let pf1 = Detect.probs_subset oracle hard x' in
    (pf0, pf1)
  in
  (* One sweep over all inputs per call, like one PREPARE pass.  Recording
     stays off except for the telemetry-on timing. *)
  let sweep f () =
    for i = 0 to n_inputs - 1 do
      ignore (Sys.opaque_identity (f i))
    done
  in
  sweep fused ();
  sweep two_queries ();
  let t_fused, s_fused = time_collect (sweep fused) in
  let t_base, s_base = time_collect (sweep two_queries) in
  Rt_obs.set_enabled true;
  Rt_obs.clear ();
  let t_fused_obs, _ = time_collect (sweep fused) in
  Rt_obs.clear ();
  Rt_obs.set_enabled false;
  let ms t = t *. 1000.0 /. Float.of_int iters in
  Printf.printf "bench-smoke (s1, cop, %d hard faults, %d inputs):\n" (Array.length hard)
    n_inputs;
  Printf.printf "  fused cofactor_pair sweep:  %8.3f ms\n" (ms t_fused);
  Printf.printf "  2x probs_subset sweep:      %8.3f ms\n" (ms t_base);
  let p50, p99 = quantile_ratios ~baseline:s_base ~candidate:s_fused in
  gate "fused / two queries" (p50 <= 1.5 && p99 <= 1.5)
    (Printf.sprintf "p50 x%.3f, p99 x%.3f (fail above 1.5)" p50 p99);
  let obs_ratio = t_fused_obs /. t_fused in
  gate "telemetry on / off" (obs_ratio <= 1.5)
    (Printf.sprintf "best of %d x%.3f (fail above 1.5)" rounds obs_ratio);
  let mctx = Pipeline.create (Pconfig.exn (Pconfig.make ~engine:"cop" ~circuit:"c6288ish:8" ())) in
  let mult = Pipeline.circuit mctx in
  let mfaults = Pipeline.fault_list mctx in
  let m_inputs = Array.length (Rt_circuit.Netlist.inputs mult) in
  let sim ~block_words () =
    let rng = Rt_util.Rng.create 7 in
    let source = Rt_sim.Pattern.equiprobable rng ~n_inputs:m_inputs in
    ignore
      (Rt_sim.Fault_sim.simulate ~jobs:1 ~block_words ~drop:false mult mfaults ~source
         ~n_patterns:512)
  in
  sim ~block_words:1 ();
  sim ~block_words:8 ();
  let t_narrow, s_narrow = time_collect (sim ~block_words:1) in
  let t_wide, s_wide = time_collect (sim ~block_words:8) in
  Printf.printf "ppsfp (c6288ish:8, %d faults, 512 patterns, no-drop):\n" (Array.length mfaults);
  Printf.printf "  narrow W=1 run:             %8.3f ms\n" (ms t_narrow);
  Printf.printf "  wide   W=8 run:             %8.3f ms\n" (ms t_wide);
  let p50, p99 = quantile_ratios ~baseline:s_wide ~candidate:s_narrow in
  gate "W=1 / W=8" (p50 > 1.25 || p99 > 1.25)
    (Printf.sprintf "p50 x%.3f, p99 x%.3f (fail unless one is above 1.25)" p50 p99);
  if !failed then begin
    Printf.eprintf "bench-smoke FAIL\n";
    exit 1
  end;
  Printf.printf "bench-smoke OK\n"
