module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Fault = Rt_fault.Fault
module Pattern = Rt_sim.Pattern
module Bits = Rt_util.Bits
module BA1 = Bigarray.Array1

type counts = {
  n_patterns : int;
  ones : int array;
  sens : int array array;
}

(* Lanes of word [k] where gate [g]'s output is sensitive to pin [j]. *)
let sens_word c v ~words g j k =
  let fi = Netlist.fanin c g in
  let word f = BA1.unsafe_get v ((f * words) + k) in
  match Netlist.kind c g with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> 0L
  | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> -1L
  | Gate.And | Gate.Nand ->
    let acc = ref (-1L) in
    Array.iteri (fun i f -> if i <> j then acc := Int64.logand !acc (word f)) fi;
    !acc
  | Gate.Or | Gate.Nor ->
    let acc = ref (-1L) in
    Array.iteri (fun i f -> if i <> j then acc := Int64.logand !acc (Int64.lognot (word f))) fi;
    !acc

let count c ~source ~n_patterns =
  let n = Netlist.size c in
  let ones = Array.make n 0 in
  let sens =
    Array.init n (fun g ->
        match Netlist.kind c g with
        | Gate.Input | Gate.Const0 | Gate.Const1 -> [||]
        | _ -> Array.make (Array.length (Netlist.fanin c g)) 0)
  in
  let words = Pattern.default_block_words () in
  let sim = Rt_sim.Logic_sim.create ~words c in
  let blk = Pattern.make_block ~n_inputs:(Array.length (Netlist.inputs c)) ~words in
  let remaining = ref n_patterns in
  while !remaining > 0 do
    Pattern.fill_block source blk ~needed:!remaining;
    Rt_sim.Logic_sim.run sim blk;
    let v = Rt_sim.Logic_sim.values sim in
    for k = 0 to blk.Pattern.filled - 1 do
      let lanes = Pattern.word_mask blk.Pattern.counts.(k) in
      for g = 0 to n - 1 do
        let word = BA1.unsafe_get v ((g * words) + k) in
        ones.(g) <- ones.(g) + Bits.popcount (Int64.logand word lanes);
        let s = sens.(g) in
        for j = 0 to Array.length s - 1 do
          s.(j) <- s.(j) + Bits.popcount (Int64.logand (sens_word c v ~words g j k) lanes)
        done
      done
    done;
    remaining := !remaining - blk.Pattern.total
  done;
  { n_patterns; ones; sens }

let controllability counts n = Float.of_int counts.ones.(n) /. Float.of_int counts.n_patterns

let observability_node c counts ~stem_rule ~total ~obs g =
  let base = if Netlist.is_output c g then 1.0 else 0.0 in
  let branch_obs = ref [] in
  Array.iter
    (fun reader ->
      Array.iteri
        (fun k f ->
          if f = g then begin
            let sens_p = Float.of_int counts.sens.(reader).(k) /. total in
            branch_obs := (sens_p *. obs.(reader)) :: !branch_obs
          end)
        (Netlist.fanin c reader))
    (Netlist.fanout c g);
  match stem_rule with
  | Observability.Complement_product ->
    1.0 -. List.fold_left (fun acc o -> acc *. (1.0 -. o)) (1.0 -. base) !branch_obs
  | Observability.Maximum -> List.fold_left Float.max base !branch_obs

let observability_subset ?(stem_rule = Observability.Complement_product) c ~mask counts =
  let n = Netlist.size c in
  if Array.length mask <> n then invalid_arg "Stafan.observability_subset: mask size";
  let total = Float.of_int counts.n_patterns in
  let obs = Array.make n 0.0 in
  for g = n - 1 downto 0 do
    if mask.(g) then obs.(g) <- observability_node c counts ~stem_rule ~total ~obs g
  done;
  obs

let fault_prob c counts ~total ~obs f =
  let src = Fault.source f c in
  let c1 = controllability counts src in
  let act = if f.Fault.stuck then 1.0 -. c1 else c1 in
  match f.Fault.site with
  | Fault.Stem n -> act *. obs.(n)
  | Fault.Branch (g, k) ->
    let sens_p = Float.of_int counts.sens.(g).(k) /. total in
    act *. sens_p *. obs.(g)

let detection_probs_subset ?stem_rule c ~mask counts faults =
  let obs = observability_subset ?stem_rule c ~mask counts in
  let total = Float.of_int counts.n_patterns in
  Array.map (fault_prob c counts ~total ~obs) faults
