module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate

(* Node values live in one flat unboxed Bigarray, node-major — node
   [i]'s W words are contiguous, so the per-gate word loop below and the
   fault-propagation inner loops both walk sequential memory. *)

module BA1 = Bigarray.Array1

type t = {
  c : Netlist.t;
  w : int;
  vals : Pattern.words;
}

let create ?words c =
  let w = Pattern.resolve_block_words words in
  let vals = BA1.create Bigarray.int64 Bigarray.c_layout (max 1 (Netlist.size c * w)) in
  BA1.fill vals 0L;
  { c; w; vals }

let run t blk =
  let c = t.c in
  if blk.Pattern.width <> Array.length (Netlist.inputs c) then
    invalid_arg "Logic_sim.run: block width mismatch";
  if blk.Pattern.words <> t.w then invalid_arg "Logic_sim.run: block word count mismatch";
  let v = t.vals in
  let w = t.w in
  let n = Netlist.size c in
  for i = 0 to n - 1 do
    let row = i * w in
    match Netlist.kind c i with
    | Gate.Input ->
      let src = Netlist.input_index c i in
      for k = 0 to w - 1 do
        BA1.unsafe_set v (row + k) (Pattern.block_word blk src k)
      done
    | Gate.Const0 -> for k = 0 to w - 1 do BA1.unsafe_set v (row + k) 0L done
    | Gate.Const1 -> for k = 0 to w - 1 do BA1.unsafe_set v (row + k) (-1L) done
    | Gate.Buf ->
      let s = (Netlist.fanin c i).(0) * w in
      for k = 0 to w - 1 do BA1.unsafe_set v (row + k) (BA1.unsafe_get v (s + k)) done
    | Gate.Not ->
      let s = (Netlist.fanin c i).(0) * w in
      for k = 0 to w - 1 do BA1.unsafe_set v (row + k) (Int64.lognot (BA1.unsafe_get v (s + k))) done
    | Gate.And ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logand !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) !acc
      done
    | Gate.Nand ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logand !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) (Int64.lognot !acc)
      done
    | Gate.Or ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logor !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) !acc
      done
    | Gate.Nor ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logor !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) (Int64.lognot !acc)
      done
    | Gate.Xor ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logxor !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) !acc
      done
    | Gate.Xnor ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logxor !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) (Int64.lognot !acc)
      done
  done

let values t = t.vals
let value t n k = BA1.get t.vals ((n * t.w) + k)
