(* optbench: the optprob benchmark harness.

   One invocation runs one named workload through the public Rt_pipeline
   API, the way `optprob run` and `optprob simulate` do, for a fixed
   measuring time.  Every operation (one circuit in one pass) builds a
   fresh pipeline context with no work_dir, so every stage runs.  Outputs
   are checked; a failed check or a raised exception counts as one failed
   operation and the run goes on.

   The last line of stdout is one JSON object with the keys "correct",
   "attempted", "failed" and "metrics".  With [--trace 0] the metrics are
   the end-to-end ones, measured with tracing off; with [--trace 1] they
   are the per-layer ones, timed from here around the public stage
   accessors.  README.md beside this file documents the workloads and
   metrics. *)

module Config = Rt_pipeline.Config
module Optimize = Rt_optprob.Optimize
module Normalize = Rt_optprob.Normalize
module Oracle = Rt_testability.Oracle
module Fault_sim = Rt_sim.Fault_sim
module P = Rt_pipeline

type kind = Run | Simulate

type workload = {
  name : string;
  kind : kind;
  engine : string;
  jobs : int;
  circuits : string list;
}

let workloads =
  [ { name = "run-default"; kind = Run; engine = "bdd"; jobs = 1;
      circuits = [ "s1"; "c2670ish"; "c7552ish"; "c6288ish" ] };
    { name = "run-cond"; kind = Run; engine = "cond:4"; jobs = 1;
      circuits = [ "s1"; "c2670ish"; "c7552ish" ] };
    { name = "simulate-easy"; kind = Simulate; engine = "bdd"; jobs = 1;
      circuits = [ "c6288ish"; "c6288ish:24" ] };
    { name = "simulate-hard"; kind = Simulate; engine = "bdd"; jobs = 2;
      circuits = [ "s2:24" ] };
    (* Seconds-long self-test workloads on tiny built-ins. *)
    { name = "smoke-run"; kind = Run; engine = "bdd"; jobs = 1;
      circuits = [ "c432ish"; "wide_and-8" ] };
    { name = "smoke-simulate"; kind = Simulate; engine = "bdd"; jobs = 2;
      circuits = [ "c432ish"; "wide_and-8" ] } ]

(* The pinned configuration.  Everything that could otherwise come from
   OPTPROB_OPT, OPTPROB_OBJECTIVE, OPTPROB_JOBS or OPTPROB_BLOCK_WORDS is
   given explicitly. *)
let patterns = 10_000
let block_words = 4

let config w ~seed circuit =
  Config.exn
    (Config.make ~engine:w.engine ~objective:"single"
       ~opt_passes:Rt_circuit.Passes.default_names ~opt_rounds:8 ~jobs:w.jobs ~block_words
       ~patterns ~seed ~circuit ())

(* --- small helpers ------------------------------------------------------------ *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let mean l = sum l /. float (List.length l)
let geomean l = exp (mean (List.map log l))
let ratio a b = if b > 0.0 then a /. b else 0.0
let count_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

let digest_floats a =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))))

let digest_ints a =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int a))))

(* Each operation starts from a collected heap. *)
let quiesce () = Gc.compact ()

(* --- one operation --------------------------------------------------------------- *)

(* The timed pass: what `optprob run` / `optprob simulate` compute. *)
let pass w ctx =
  match w.kind with
  | Run -> ignore (P.run ctx)
  | Simulate -> ignore (P.simulated ctx)

(* What a pass produced, read back from its (memoised) context.  Holds
   no reference to the context, so the engine it built can be collected. *)
type result = {
  circuit : string;
  netlist : Rt_circuit.Netlist.t;  (** the netlist the pipeline ran on *)
  faults : Rt_fault.Fault.t array;
  seed : int;
  n_exact : int;
  n : (float * float) option;
      (** run workloads: required N at X = 0.5 and the reported optimized N *)
  weights : float array;  (** the deployed weights *)
  art : P.validated;  (** the validated (run) or simulated (simulate) artifact *)
  sweeps : int;
}

let result_of w circuit ctx =
  let n, weights, art, sweeps =
    match w.kind with
    | Run ->
      let o = (P.optimized ctx).P.value in
      let r = o.P.opt_report in
      ( Some ((P.normalized ctx).P.value.P.n_required, r.Optimize.n_final),
        P.opt_weights o,
        (P.validated ctx).P.value,
        r.Optimize.sweeps_run )
    | Simulate ->
      let v = (P.simulated ctx).P.value in
      (None, v.P.v_weights, v, 0)
  in
  { circuit;
    netlist = P.circuit ctx;
    faults = P.fault_list ctx;
    seed = (P.config ctx).Config.seed;
    n_exact = count_true (P.analysis ctx).P.value.P.exact_mask;
    n;
    weights;
    art;
    sweeps }

let n_faults r = Array.length r.faults
let coverage_pct r = 100.0 *. r.art.P.coverage

(* N_opt > N at X = 0.5: reported as [worse_designs], never a failure. *)
let worse r = match r.n with Some (conv, opt) -> opt > conv | None -> false

(* Patterns simulated for each fault up to and including its first
   detecting one (all of them for an undetected fault), summed over
   faults: the work fault dropping leaves, independent of W and jobs. *)
let live_fault_patterns r =
  Array.fold_left
    (fun acc fd -> acc + if fd >= 0 then fd + 1 else r.art.P.patterns_run)
    0 r.art.P.first_detect

let check_outputs r =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let inputs = Array.length (Rt_circuit.Netlist.inputs r.netlist) in
  if Array.length r.weights <> inputs then
    fail "%d weights for %d inputs" (Array.length r.weights) inputs;
  let outside = List.filter (fun x -> not (x >= 0.0 && x <= 1.0)) (Array.to_list r.weights) in
  if outside <> [] then fail "%d weights outside [0, 1]" (List.length outside);
  (match r.n with
   | Some (_, n) when not (Float.is_finite n && n > 0.0) ->
     fail "N = %g is not finite and positive" n
   | _ -> ());
  let cov = coverage_pct r in
  if not (cov >= 0.0 && cov <= 100.0) then fail "coverage %g%% outside [0, 100]" cov;
  List.rev !errs

(* A direct ppsfp replay of the artifact (same netlist, faults, weights,
   seed, patterns and W), compared with it bit for bit.  Returns the
   errors and the replay time. *)
let checked_replay ~jobs r =
  let source = Rt_sim.Pattern.weighted (Rt_util.Rng.create r.seed) r.art.P.v_weights in
  let s, t =
    time (fun () ->
        Fault_sim.simulate ~jobs ~block_words ~drop:true r.netlist r.faults ~source
          ~n_patterns:patterns)
  in
  if s.Fault_sim.first_detect = r.art.P.first_detect then ([], t)
  else ([ Printf.sprintf "first_detect differs from the jobs %d replay" jobs ], t)

(* --- bookkeeping ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let fail_operation ~label why =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "optbench: FAILED %s: %s\n%!" label why

(* Runs one operation: [Some v] when [f] returns [Ok v]; counted as failed,
   and reported on stderr, when it returns [Error] or raises. *)
let operation ~label f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | Ok v -> Some v
  | Error errs ->
    fail_operation ~label (String.concat "; " errs);
    None
  | exception e ->
    fail_operation ~label ("raised " ^ Printexc.to_string e);
    None

(* The first result of each circuit.  Later passes must reproduce its
   weights, N and first_detect exactly. *)
let firsts : (string, result) Hashtbl.t = Hashtbl.create 8

let record_first r =
  match Hashtbl.find_opt firsts r.circuit with
  | None ->
    Hashtbl.replace firsts r.circuit r;
    []
  | Some r0 ->
    List.filter_map
      (fun (same, what) -> if same then None else Some (what ^ " differs from the first pass"))
      [ (r.weights = r0.weights, "weights");
        (r.n = r0.n, "N");
        (r.art.P.first_detect = r0.art.P.first_detect, "first_detect") ]

(* Outputs pass the checks, then must match the circuit's first pass. *)
let checks r = match check_outputs r with [] -> record_first r | errs -> errs

(* Self-test fault injection: corrupts one output before it is checked,
   or raises.  "drift" corrupts every pass of a circuit after its first. *)
let inject = ref "none"

let injected r =
  let bump a = Array.mapi (fun i x -> if i = 0 then x + 1 else x) a in
  let with_first_detect fd = { r with art = { r.art with P.first_detect = fd } } in
  match !inject with
  | "weights" -> { r with weights = Array.map (fun _ -> 1.5) r.weights }
  | "n" -> { r with n = Option.map (fun (conv, _) -> (conv, infinity)) r.n }
  | "coverage" -> { r with art = { r.art with P.coverage = 1.5 } }
  | "first-detect" -> with_first_detect (bump r.art.P.first_detect)
  | "drift" when Hashtbl.mem firsts r.circuit -> with_first_detect (bump r.art.P.first_detect)
  | "raise" -> failwith "injected failure"
  | _ -> r

(* Per-circuit samples: one list per circuit, newest first. *)
let samples () = Hashtbl.create 8

let add tbl circuit v =
  Hashtbl.replace tbl circuit (v :: Option.value ~default:[] (Hashtbl.find_opt tbl circuit))

let samples_of tbl c = Option.value ~default:[] (Hashtbl.find_opt tbl c)

(* Runs [op round circuit] on the workload's circuits in turn until the
   measuring time is used up.  The first round always completes; after it,
   an operation starts only if its circuit's median operation time so far
   says it ends before the deadline. *)
let measure ?(after_first_round = ignore) w ~seconds op =
  let deadline = now () +. seconds in
  let times = samples () in
  let rec go k =
    let ran =
      List.filter
        (fun c ->
          let fits = k = 0 || now () +. median (samples_of times c) <= deadline in
          if fits then add times c (snd (time (fun () -> op k c)));
          fits)
        w.circuits
    in
    if k = 0 then after_first_round ();
    if ran <> [] then go (k + 1)
  in
  go 0

(* --- set-up ------------------------------------------------------------------------- *)

(* One set-up: validate every circuit's config and load and collapse its
   netlist, start the domain pool at the workload's job count, and make one
   warm-up simulate pass on c432ish (the engine build, analysis and
   ppsfp). *)
let setup_once w ~seed =
  snd
    (time (fun () ->
         List.iter (fun c -> ignore (P.faults (P.create (config w ~seed c)))) w.circuits;
         if w.jobs > 1 then
           Rt_util.Parallel.region ~jobs:w.jobs ~n:w.jobs (fun ~chunk:_ ~lo:_ ~hi:_ -> ());
         pass { w with kind = Simulate } (P.create (config w ~seed "c432ish"))))

let setup_reps = 9

let setup w ~seed =
  median
    (List.init setup_reps (fun _ ->
         quiesce ();
         setup_once w ~seed))

(* --- reporting ------------------------------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

(* The first result of every circuit, one line each. *)
let results w =
  let rs = List.filter_map (Hashtbl.find_opt firsts) w.circuits in
  List.iter
    (fun r ->
      let n =
        match r.n with
        | Some (conv, opt) ->
          Printf.sprintf " n_conv %.6g n_opt %.6g worse %b" conv opt (worse r)
        | None -> ""
      in
      Printf.printf
        "circuit %s seed %d faults %d exact_frac %.4f%s coverage_pct %.4f weights_digest %s \
         first_detect_digest %s\n"
        r.circuit r.seed (n_faults r)
        (ratio (float r.n_exact) (float (n_faults r)))
        n (coverage_pct r) (digest_floats r.weights) (digest_ints r.art.P.first_detect))
    rs;
  rs

(* One line per circuit: the sample count, median and range of [f]. *)
let print_timings w tbl what f =
  List.iter
    (fun c ->
      let xs = List.map f (samples_of tbl c) in
      if xs <> [] then
        Printf.printf "timing %s %s samples %d median %.4f min %.4f max %.4f\n" c what
          (List.length xs) (median xs) (List.fold_left min infinity xs)
          (List.fold_left max neg_infinity xs))
    w.circuits

(* Per circuit the median over its operations of [f], summed over circuits. *)
let per_circuit_median w tbl f =
  sum (List.map (fun c -> median (List.map f (samples_of tbl c))) w.circuits)

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- untraced run: end-to-end metrics ----------------------------------------------- *)

let untraced w ~seed ~seconds =
  let setup_s = setup w ~seed in
  let walls = samples () in
  (* The peak heap over set-up and one pass of every circuit: later rounds
     run a varying number of operations. *)
  let peak_heap = ref nan in
  measure w ~seconds
    ~after_first_round:(fun () -> peak_heap := peak_heap_mb ())
    (fun k circuit ->
      quiesce ();
      let label = Printf.sprintf "%s pass %d" circuit k in
      operation ~label (fun () ->
          let ctx = P.create (config w ~seed circuit) in
          let (), wall = time (fun () -> pass w ctx) in
          let r = injected (result_of w circuit ctx) in
          match checks r with
          | [] -> Ok wall
          | errs -> Error errs)
      |> Option.iter (add walls circuit));
  (* After the measuring time: the first pass of each circuit against a
     jobs 1 replay, which with the repository's (jobs, W) bit-identity
     also covers the workload's own jobs. *)
  Hashtbl.iter
    (fun c r ->
      match checked_replay ~jobs:1 r with
      | [], _ -> ()
      | errs, _ -> fail_operation ~label:(c ^ " pass 0") (String.concat "; " errs))
    firsts;
  let rs = results w in
  print_timings w walls "wall_s" Fun.id;
  [ m "wall_s" "s" (per_circuit_median w walls Fun.id);
    m "setup_s" "s" setup_s;
    m "peak_heap_mb" "MB" !peak_heap;
    m "coverage_pct" "%" (mean (List.map coverage_pct rs)) ]

(* --- traced run: per-layer metrics -------------------------------------------------- *)

(* Per-operation layer timings, in seconds. *)
type layers = {
  wall : float;  (** untraced pass *)
  load : float;
  passes : float;
  collapse : float;
  build : float;
  analysis : float;
  cofactor_sweep : float;
  normalize : float;
  optimize : float;
  validate : float;
  simulate : float;
  unattributed : float;
  ppsfp_1 : float;  (** replay at jobs 1 *)
  ppsfp_2 : float;  (** replay at jobs 2 *)
  obs_wall : float;  (** pass with Rt_obs recording on *)
}

(* One PREPARE sweep as the optimizer makes it: a cofactor pair per input
   over the plan of the hard prefix NORMALIZE gives at the optimizer's
   nf_min, at the analysed weights. *)
let cofactor_sweep ctx =
  let cfg = P.config ctx in
  let o = P.oracle ctx in
  let a = (P.analysis ctx).P.value in
  let norm =
    Normalize.run ~objective:(Config.objective_instance cfg) ~confidence:cfg.Config.confidence
      ~nf_min:(Config.optimize_options cfg).Optimize.nf_min a.P.pf
  in
  let x = a.P.a_weights in
  snd
    (time (fun () ->
         let plan = Oracle.plan o (Normalize.hard_indices norm) in
         for input = 0 to Array.length x - 1 do
           ignore (Oracle.cofactor_pair o plan ~input ~x)
         done))

(* The stage accessors in graph order on a fresh context: upstream stages
   are memoised, so each call's time is that stage's self time. *)
let staged_pass w cfg circuit =
  let ctx = P.create cfg in
  let t_start = now () in
  let stage f = snd (time (fun () -> ignore (f ctx))) in
  let load = stage P.loaded in
  let passes = stage P.opt_netlist in
  let collapse = stage P.faults in
  let build = stage P.oracle in
  let analysis = stage P.analysis in
  let normalize, optimize, validate, simulate =
    match w.kind with
    | Run ->
      let n = stage P.normalized in
      let o = stage (fun ctx -> P.optimized ctx) in
      let v = stage P.validated in
      (n, o, v, 0.0)
    | Simulate -> (0.0, 0.0, 0.0, stage P.simulated)
  in
  pass w ctx;
  let unattributed =
    now () -. t_start
    -. (load +. passes +. collapse +. build +. analysis +. normalize +. optimize +. validate
       +. simulate)
  in
  let cofactor_sweep = match w.kind with Run -> cofactor_sweep ctx | Simulate -> 0.0 in
  let l =
    { wall = 0.0; load; passes; collapse; build; analysis; cofactor_sweep; normalize; optimize;
      validate; simulate; unattributed; ppsfp_1 = 0.0; ppsfp_2 = 0.0; obs_wall = 0.0 }
  in
  (l, result_of w circuit ctx)

let traced_op w ~seed circuit =
  let cfg = config w ~seed circuit in
  let (), wall = time (fun () -> pass w (P.create cfg)) in
  quiesce ();
  let l, r = staged_pass w cfg circuit in
  let r = injected r in
  (* The replays time the ppsfp kernel alone, not the collection of the
     staged pass's garbage. *)
  quiesce ();
  let errs_1, ppsfp_1 = checked_replay ~jobs:1 r in
  let errs_2, ppsfp_2 = checked_replay ~jobs:2 r in
  quiesce ();
  Rt_obs.set_enabled true;
  let (), obs_wall =
    Fun.protect
      ~finally:(fun () ->
        Rt_obs.set_enabled false;
        Rt_obs.clear ())
      (fun () -> time (fun () -> pass w (P.create cfg)))
  in
  match checks r @ errs_1 @ errs_2 with
  | [] -> Ok { l with wall; ppsfp_1; ppsfp_2; obs_wall }
  | errs -> Error errs

let traced w ~seed ~seconds =
  (* One untimed set-up, so that the first traced pass is not a cold one. *)
  ignore (setup_once w ~seed);
  let ops = samples () in
  measure w ~seconds (fun k circuit ->
      quiesce ();
      let label = Printf.sprintf "%s traced pass %d" circuit k in
      operation ~label (fun () -> traced_op w ~seed circuit) |> Option.iter (add ops circuit));
  let rs = results w in
  print_timings w ops "pipeline.wall_s" (fun l -> l.wall);
  let layer = per_circuit_median w ops in
  let count f = float (List.fold_left (fun acc r -> acc + f r) 0 rs) in
  let wall = layer (fun l -> l.wall) in
  let optimize = layer (fun l -> l.optimize) in
  let sweeps = count (fun r -> r.sweeps) in
  (* Every workload runs at jobs 1 or 2. *)
  let ppsfp = layer (fun l -> if w.jobs = 1 then l.ppsfp_1 else l.ppsfp_2) in
  let live = count live_fault_patterns in
  let faults = count n_faults in
  let n_opt = List.filter_map (fun r -> Option.map snd r.n) rs in
  [ m "pipeline.wall_s" "s" wall;
    m "circuit.load_s" "s" (layer (fun l -> l.load));
    m "circuit.passes_s" "s" (layer (fun l -> l.passes));
    m "fault.collapse_s" "s" (layer (fun l -> l.collapse));
    m "fault.count" "count" faults;
    m "testability.build_s" "s" (layer (fun l -> l.build));
    m "testability.exact_frac" "ratio" (ratio (count (fun r -> r.n_exact)) faults);
    m "testability.analysis_s" "s" (layer (fun l -> l.analysis));
    m "testability.cofactor_sweep_s" "s" (layer (fun l -> l.cofactor_sweep));
    m "optprob.normalize_s" "s" (layer (fun l -> l.normalize));
    m "optprob.optimize_s" "s" optimize;
    m "optprob.sweeps" "count" sweeps;
    m "optprob.sweep_s" "s" (ratio optimize sweeps);
    m "sim.validate_s" "s" (layer (fun l -> l.validate));
    m "sim.simulate_s" "s" (layer (fun l -> l.simulate));
    m "sim.ppsfp_s" "s" ppsfp;
    m "sim.live_fault_patterns" "count" live;
    m "sim.ns_per_live_fault_pattern" "ns" (ratio (ppsfp *. 1e9) live);
    m "pool.speedup" "ratio" (ratio (layer (fun l -> l.ppsfp_1)) (layer (fun l -> l.ppsfp_2)));
    m "obs.overhead_frac" "ratio" (ratio (layer (fun l -> l.obs_wall)) wall -. 1.0);
    m "pipeline.unattributed_s" "s" (layer (fun l -> l.unattributed));
    m "n_opt_geomean" "patterns" (if n_opt = [] then 0.0 else geomean n_opt);
    m "worse_designs" "count" (count (fun r -> if worse r then 1 else 0));
    m "failed_frac" "ratio" (ratio (float tally.failed) (float tally.attempted)) ]

(* --- output -------------------------------------------------------------------------- *)

(* A float with all its digits; JSON has no non-finite numbers. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_result metrics =
  let correct = tally.failed = 0 && List.for_all (fun x -> Float.is_finite x.m_value) metrics in
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_float x.m_value)
          x.m_unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    tally.attempted tally.failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N fault-simulation seed of every operation");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--inject",
        Arg.Set_string inject,
        "KIND self-test fault injection: weights, n, coverage, first-detect, drift or raise" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "optbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "optbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !seed < 0 then begin
    prerr_endline "optbench: --seed N (N >= 0) is required";
    exit 2
  end;
  Printf.printf "workload %s seed %d seconds %g trace %d engine %s jobs %d patterns %d W %d\n%!"
    w.name !seed !seconds !trace w.engine w.jobs patterns block_words;
  let metrics =
    if !trace = 0 then untraced w ~seed:!seed ~seconds:!seconds
    else traced w ~seed:!seed ~seconds:!seconds
  in
  print_endline (json_result metrics)
