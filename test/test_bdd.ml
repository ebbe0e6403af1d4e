(* Tests for Rt_bdd: canonical ROBDD operations, exact signal probability
   (Parker-McCluskey), fault detection functions, and the node limit. *)

module Bdd = Rt_bdd.Bdd
module Bdd_circuit = Rt_bdd.Bdd_circuit
module Netlist = Rt_circuit.Netlist
module Generators = Rt_circuit.Generators

let check = Alcotest.check

let bits_of_int w v = Array.init w (fun i -> (v lsr i) land 1 = 1)

let test_terminal_identities () =
  let m = Bdd.manager ~nvars:4 () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  check Alcotest.bool "x & 1 = x" true (Bdd.equal (Bdd.and_ m x (Bdd.one m)) x);
  check Alcotest.bool "x & 0 = 0" true (Bdd.is_zero (Bdd.and_ m x (Bdd.zero m)));
  check Alcotest.bool "x | 0 = x" true (Bdd.equal (Bdd.or_ m x (Bdd.zero m)) x);
  check Alcotest.bool "x ^ x = 0" true (Bdd.is_zero (Bdd.xor_ m x x));
  check Alcotest.bool "x ^ ~x = 1" true (Bdd.is_one (Bdd.xor_ m x (Bdd.not_ m x)));
  check Alcotest.bool "~~x = x" true (Bdd.equal (Bdd.not_ m (Bdd.not_ m x)) x);
  check Alcotest.bool "x & y = y & x" true (Bdd.equal (Bdd.and_ m x y) (Bdd.and_ m y x))

let test_canonicity () =
  (* Two syntactically different constructions of the same function share
     one node. *)
  let m = Bdd.manager ~nvars:3 () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f1 = Bdd.not_ m (Bdd.and_ m x y) in
  let f2 = Bdd.or_ m (Bdd.not_ m x) (Bdd.not_ m y) in
  check Alcotest.bool "de morgan canonical" true (Bdd.equal f1 f2)

let test_ite () =
  let m = Bdd.manager ~nvars:3 () in
  let c = Bdd.var m 0 and t = Bdd.var m 1 and e = Bdd.var m 2 in
  let f = Bdd.ite m c t e in
  List.iter
    (fun v ->
      let assign i = (v lsr i) land 1 = 1 in
      let expect = if assign 0 then assign 1 else assign 2 in
      if Bdd.eval m f assign <> expect then Alcotest.failf "ite wrong at %d" v)
    (List.init 8 Fun.id)

let test_restrict () =
  let m = Bdd.manager ~nvars:2 () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.xor_ m x y in
  check Alcotest.bool "f|x=0 is y" true (Bdd.equal (Bdd.restrict m f 0 false) y);
  check Alcotest.bool "f|x=1 is ~y" true (Bdd.equal (Bdd.restrict m f 0 true) (Bdd.not_ m y))

let test_node_limit () =
  let m = Bdd.manager ~node_limit:8 ~nvars:16 () in
  Alcotest.check_raises "limit" Bdd.Limit_exceeded (fun () ->
      let acc = ref (Bdd.one m) in
      for i = 0 to 15 do
        acc := Bdd.and_ m !acc (Bdd.var m i)
      done)

let test_sat_fraction_parity () =
  (* Parity of n variables is satisfied by exactly half the assignments. *)
  let m = Bdd.manager ~nvars:8 () in
  let f = ref (Bdd.zero m) in
  for i = 0 to 7 do
    f := Bdd.xor_ m !f (Bdd.var m i)
  done;
  check (Alcotest.float 1e-12) "parity fraction" 0.5 (Bdd.sat_fraction m !f)

let test_any_sat () =
  let m = Bdd.manager ~nvars:4 () in
  let f =
    Bdd.and_ m (Bdd.var m 0) (Bdd.and_ m (Bdd.not_ m (Bdd.var m 2)) (Bdd.var m 3))
  in
  (match Bdd.any_sat m f with
   | None -> Alcotest.fail "satisfiable function"
   | Some assign ->
     let value = Bdd.eval m f (fun i -> List.assoc_opt i assign = Some true) in
     check Alcotest.bool "assignment satisfies" true value);
  check Alcotest.bool "zero unsat" true (Bdd.any_sat m (Bdd.zero m) = None)

(* Random circuit: BDD evaluation must equal direct netlist evaluation, and
   BDD probability must equal exhaustive enumeration. *)
let bdd_vs_netlist_qcheck =
  QCheck.Test.make ~name:"bdd build agrees with netlist eval" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:7 ~gates:40 ~seed in
      match Bdd_circuit.build c with
      | None -> QCheck.assume_fail ()
      | Some (m, bdds, order) ->
        let ok = ref true in
        for v = 0 to 127 do
          let inp = bits_of_int 7 v in
          let vals = Netlist.eval c inp in
          (* BDD variable = order.(input position) *)
          let assign var =
            let rec find i = if order.(i) = var then inp.(i) else find (i + 1) in
            find 0
          in
          for n = 0 to Netlist.size c - 1 do
            if Bdd.eval m bdds.(n) assign <> vals.(n) then ok := false
          done
        done;
        !ok)

let prob_vs_enumeration_qcheck =
  QCheck.Test.make ~name:"exact signal probs equal enumeration" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:6 ~gates:30 ~seed in
      let x = Array.init 6 (fun i -> 0.1 +. (0.13 *. Float.of_int i)) in
      match Bdd_circuit.signal_probs c x with
      | None -> QCheck.assume_fail ()
      | Some probs ->
        (* enumerate *)
        let n = Netlist.size c in
        let acc = Array.make n 0.0 in
        for v = 0 to 63 do
          let inp = bits_of_int 6 v in
          let weight =
            Array.to_list (Array.mapi (fun i b -> if b then x.(i) else 1.0 -. x.(i)) inp)
            |> List.fold_left ( *. ) 1.0
          in
          let vals = Netlist.eval c inp in
          Array.iteri (fun j b -> if b then acc.(j) <- acc.(j) +. weight) vals
        done;
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) acc probs)

let detection_prob_vs_bruteforce_qcheck =
  QCheck.Test.make ~name:"detection prob equals brute-force fraction" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:6 ~gates:25 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let x = Array.make 6 0.5 in
      let ok = ref true in
      Array.iteri
        (fun fi f ->
          if fi mod 7 = 0 then begin
            (* sample a few faults per circuit to bound the cost *)
            let inj = Rt_testability.Detect.injection f in
            match Bdd_circuit.detection_prob c inj x with
            | None -> ()
            | Some p ->
              let count = ref 0 in
              for v = 0 to 63 do
                if Rt_sim.Fault_sim.detects c f (bits_of_int 6 v) then incr count
              done;
              let brute = Float.of_int !count /. 64.0 in
              if Float.abs (p -. brute) > 1e-9 then ok := false
          end)
        faults;
      !ok)

let test_dfs_order_comparator () =
  (* The declaration order (all a's then all b's) blows comparators up
     exponentially; the DFS order must keep S1 comfortably under the
     limit. *)
  let c = Generators.s1_comparator () in
  match Bdd_circuit.build ~node_limit:200_000 c with
  | None -> Alcotest.fail "s1 did not fit with DFS order"
  | Some (m, _, _) ->
    check Alcotest.bool "small" true (Bdd.node_count m < 100_000)

let test_detection_function_redundant () =
  (* A constant-0-fed AND behind folding-off construction: stuck-at-0 on
     its output is undetectable. *)
  let b = Rt_circuit.Builder.create ~fold:false ~prune:false () in
  let x = Rt_circuit.Builder.input b "x" in
  let nx = Rt_circuit.Builder.not_ b x in
  let zero = Rt_circuit.Builder.and2 b x nx in
  (* always 0 *)
  Rt_circuit.Builder.output b ~name:"y" (Rt_circuit.Builder.or2 b zero x);
  let c = Rt_circuit.Builder.finalize b in
  (match Netlist.find c (Netlist.name c zero) with
   | None -> Alcotest.fail "node lost"
   | Some node ->
     (match Bdd_circuit.detection_function c (Bdd_circuit.Stem (node, false)) with
      | None -> Alcotest.fail "tiny circuit must fit"
      | Some (_, detect, _) ->
        check Alcotest.bool "s-a-0 on constant-0 node is redundant" true (Bdd.is_zero detect)))

(* --- node identity ---------------------------------------------------------

   The computed cache is lossy, but nodes are never freed: a miss only
   recomputes a result whose nodes exist already.  So rebuilding a circuit
   in the same manager must return the very same roots without allocating,
   and the exact engine's node counts, generations and probabilities are
   pinned to the values of the unbounded-cache package it replaced. *)

let rebuild_allocates_nothing_qcheck =
  QCheck.Test.make ~name:"rebuild: same roots, no new node" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let nvars = 16 in
      let c = Generators.random_circuit ~inputs:nvars ~gates:300 ~seed in
      let order = Bdd_circuit.dfs_order c in
      let m = Bdd.manager ~nvars () in
      (* Every node, then both cofactors of every output on every variable,
         each cofactor pair checked against the Shannon expansion. *)
      let build () =
        let bdds = Array.make (Netlist.size c) (Bdd.zero m) in
        for i = 0 to Netlist.size c - 1 do
          bdds.(i) <-
            (match Netlist.kind c i with
             | Rt_circuit.Gate.Input -> Bdd.var m order.(Netlist.input_index c i)
             | k -> Bdd.apply_kind m k (Array.map (fun j -> bdds.(j)) (Netlist.fanin c i)))
        done;
        let cofactors =
          List.concat_map
            (fun v ->
              List.concat_map
                (fun o ->
                  let f = bdds.(o) in
                  let lo = Bdd.restrict m f v false and hi = Bdd.restrict m f v true in
                  if not (Bdd.equal (Bdd.ite m (Bdd.var m v) hi lo) f) then
                    QCheck.Test.fail_reportf "Shannon expansion fails on var %d" v;
                  [ lo; hi ])
                (Array.to_list (Netlist.outputs c)))
            (List.init nvars Fun.id)
        in
        Array.append bdds (Array.of_list cofactors)
      in
      let first = build () in
      let nodes = Bdd.node_count m in
      let second = build () in
      Array.for_all2 Bdd.equal first second && Bdd.node_count m = nodes)

let digest_floats a =
  Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))))

(* [Detect.describe], then the MD5s of [Detect.probs] at X = 0.5 and of
   both cofactor vectors at the middle input, over all faults. *)
let exact_engine_fingerprint ~node_limit c =
  let module Detect = Rt_testability.Detect in
  let module Oracle = Rt_testability.Oracle in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let o = Detect.make ~jobs:1 (Detect.Bdd_exact { node_limit }) c faults in
  let ni = Array.length (Netlist.inputs c) in
  let x = Array.make ni 0.5 in
  let plan = Oracle.plan o (Array.init (Array.length faults) Fun.id) in
  let c0, c1 = Oracle.cofactor_pair o plan ~input:(ni / 2) ~x in
  String.concat " "
    [ Detect.describe o; digest_floats (Detect.probs o x); digest_floats c0; digest_floats c1 ]

let test_golden_s1 () =
  check Alcotest.string "s1, bdd engine default node limit"
    "bdd-exact(534/534 exact, 1 generations, 93034 nodes) aacefade88093fb46e987f8e6e032db3 \
     3332016e4370edce1c708ec632e09a02 14189722abe13aa9ed4ca5991a8599e2"
    (exact_engine_fingerprint ~node_limit:1_000_000 (Generators.s1_comparator ()))

let test_golden_overflow () =
  (* A node limit small enough that generations overflow and regenerate,
     and that most faults fall back to COP. *)
  check Alcotest.string "c432ish, 10000-node limit"
    "bdd-exact(65/255 exact, 4 generations, 39992 nodes) 8a104bd95e7a4054cd42d48d97ec4013 \
     b0a31b766f57e94653bc70f0ecc865de f7ecf63561414aa9060db35ac7894c24"
    (exact_engine_fingerprint ~node_limit:10_000 (Generators.c432ish ()))

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_bdd"
    [ ( "core",
        [ Alcotest.test_case "terminal identities" `Quick test_terminal_identities;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "ite" `Quick test_ite;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "sat fraction parity" `Quick test_sat_fraction_parity;
          Alcotest.test_case "any_sat" `Quick test_any_sat ] );
      ( "circuit",
        [ q bdd_vs_netlist_qcheck;
          q prob_vs_enumeration_qcheck;
          q detection_prob_vs_bruteforce_qcheck;
          Alcotest.test_case "dfs order tames comparator" `Quick test_dfs_order_comparator;
          Alcotest.test_case "redundant fault detection function" `Quick
            test_detection_function_redundant ] );
      ( "golden",
        [ q rebuild_allocates_nothing_qcheck;
          Alcotest.test_case "exact engine on s1" `Quick test_golden_s1;
          Alcotest.test_case "exact engine through overflow" `Quick test_golden_overflow ] ) ]
