(* Node store: node 0 = terminal FALSE, node 1 = terminal TRUE.  Internal
   node i >= 2 has (var, low, high) with low <> high and both children over
   strictly larger variables.

   The unique table is an open-addressed [int array] of node ids (0 marks
   an empty slot) probed linearly from a mix hash of (var, low, high) and
   compared against the node arrays, so a lookup allocates nothing.  It
   keeps its load at or below one half and doubles by rehashing the node
   arrays.

   The computed cache is direct-mapped and lossy: [cache_ints] ints per
   slot, (op, f, g, result), with op = -1 marking an empty slot; a new
   entry overwrites whatever shared its slot.  Its slot count is a fixed
   fraction of the unique table's, so it grows with the node count.
   Because nodes are never freed, a miss only recomputes a result whose
   nodes all exist already, so [mk] finds every one of them: node ids,
   their creation order, the point where [Limit_exceeded] fires and every
   result are the same as with an unbounded cache. *)

type t = int

exception Limit_exceeded

type manager = {
  nvars : int;
  node_limit : int;
  mutable vars : int array;
  mutable lows : int array;
  mutable highs : int array;
  mutable n : int;
  mutable unique : int array;
  mutable cache : int array;
  (* op codes for the cache: 0=and 1=or 2=xor 3=not (g = 0)
     4/5 + (i lsl 3) = restrict on variable i to false/true (g = i) *)
}

let terminal_var = max_int
let cache_ints = 4

(* Unique-table slots per computed-cache slot. *)
let cache_ratio = 8

let[@inline] hash3 a b c =
  let h = (a * 0x9E3779B1) + (b * 0x85EBCA77) + (c * 0xC2B2AE3D) in
  let h = (h lxor (h lsr 29)) * 0x27D4EB2F165667C5 in
  h lxor (h lsr 32)

let empty_cache unique_slots = Array.make (cache_ints * (unique_slots / cache_ratio)) (-1)

let manager ?(node_limit = 2_000_000) ~nvars () =
  let cap = 1024 and slots = 4096 in
  let m =
    { nvars;
      node_limit;
      vars = Array.make cap terminal_var;
      lows = Array.make cap 0;
      highs = Array.make cap 0;
      n = 2;
      unique = Array.make slots 0;
      cache = empty_cache slots }
  in
  m.vars.(0) <- terminal_var;
  m.vars.(1) <- terminal_var;
  m

let node_count m = m.n - 2

let zero (_ : manager) : t = 0
let one (_ : manager) : t = 1
let is_zero (x : t) = x = 0
let is_one (x : t) = x = 1
let equal (a : t) (b : t) = a = b

let var_of m x = m.vars.(x)

(* --- computed cache ------------------------------------------------------------ *)

let[@inline] cache_slot m op f g =
  cache_ints * (hash3 op f g land ((Array.length m.cache / cache_ints) - 1))

(* The cached result of (op, f, g), or -1. *)
let cache_find m op f g =
  let c = m.cache in
  let i = cache_slot m op f g in
  if c.(i) = op && c.(i + 1) = f && c.(i + 2) = g then c.(i + 3) else -1

let cache_add m op f g r =
  let c = m.cache in
  let i = cache_slot m op f g in
  c.(i) <- op;
  c.(i + 1) <- f;
  c.(i + 2) <- g;
  c.(i + 3) <- r

(* --- unique table ---------------------------------------------------------------- *)

let rec probe_unique m u mask v low high i =
  let id = u.(i) in
  if id = 0 || (m.vars.(id) = v && m.lows.(id) = low && m.highs.(id) = high) then i
  else probe_unique m u mask v low high ((i + 1) land mask)

(* The slot holding node (v, low, high), or the empty slot where it
   belongs. *)
let find_slot m v low high =
  let u = m.unique in
  let mask = Array.length u - 1 in
  probe_unique m u mask v low high (hash3 v low high land mask)

(* Double the unique table, and replace the computed cache by an empty
   one of the matching size (it is lossy, so dropping it is safe). *)
let grow_tables m =
  m.unique <- Array.make (2 * Array.length m.unique) 0;
  for id = 2 to m.n - 1 do
    m.unique.(find_slot m m.vars.(id) m.lows.(id) m.highs.(id)) <- id
  done;
  m.cache <- empty_cache (Array.length m.unique)

let mk m v low high =
  if low = high then low
  else begin
    let slot = find_slot m v low high in
    let found = m.unique.(slot) in
    if found <> 0 then found
    else begin
      if m.n >= m.node_limit then raise Limit_exceeded;
      if m.n >= Array.length m.vars then begin
        let cap = 2 * Array.length m.vars in
        let grow a = let a' = Array.make cap 0 in Array.blit a 0 a' 0 m.n; a' in
        m.vars <- (let a' = Array.make cap terminal_var in Array.blit m.vars 0 a' 0 m.n; a');
        m.lows <- grow m.lows;
        m.highs <- grow m.highs
      end;
      let id = m.n in
      m.n <- id + 1;
      m.vars.(id) <- v;
      m.lows.(id) <- low;
      m.highs.(id) <- high;
      m.unique.(slot) <- id;
      if 2 * (m.n - 2) > Array.length m.unique then grow_tables m;
      id
    end
  end

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var";
  mk m i 0 1

let rec not_ m x =
  if x = 0 then 1
  else if x = 1 then 0
  else begin
    let r = cache_find m 3 x 0 in
    if r >= 0 then r
    else begin
      let r = mk m m.vars.(x) (not_ m m.lows.(x)) (not_ m m.highs.(x)) in
      cache_add m 3 x 0 r;
      r
    end
  end

let rec apply m op f g =
  (* Terminal rules per op; -1 when none applies. *)
  let terminal =
    match op with
    | 0 (* and *) ->
      if f = 0 || g = 0 then 0
      else if f = 1 then g
      else if g = 1 then f
      else if f = g then f
      else -1
    | 1 (* or *) ->
      if f = 1 || g = 1 then 1
      else if f = 0 then g
      else if g = 0 then f
      else if f = g then f
      else -1
    | 2 (* xor *) ->
      if f = g then 0
      else if f = 0 then g
      else if g = 0 then f
      else if f = 1 then not_ m g
      else if g = 1 then not_ m f
      else -1
    | _ -> invalid_arg "Bdd.apply: bad op"
  in
  if terminal >= 0 then terminal
  else begin
    (* Commutative ops: normalise operand order for cache hits. *)
    let f = if f <= g then f else g and g = if f <= g then g else f in
    let r = cache_find m op f g in
    if r >= 0 then r
    else begin
      let vf = var_of m f and vg = var_of m g in
      let v = if vf <= vg then vf else vg in
      let f0 = if vf = v then m.lows.(f) else f and f1 = if vf = v then m.highs.(f) else f in
      let g0 = if vg = v then m.lows.(g) else g and g1 = if vg = v then m.highs.(g) else g in
      let r = mk m v (apply m op f0 g0) (apply m op f1 g1) in
      cache_add m op f g r;
      r
    end
  end

let and_ m f g = apply m 0 f g
let or_ m f g = apply m 1 f g
let xor_ m f g = apply m 2 f g
let xnor_ m f g = not_ m (xor_ m f g)

let ite m c t e = or_ m (and_ m c t) (and_ m (not_ m c) e)

let apply_kind m kind args =
  let open Rt_circuit.Gate in
  let fold op init = Array.fold_left (fun acc x -> apply m op acc x) init args in
  match kind with
  | Input -> invalid_arg "Bdd.apply_kind: Input"
  | Const0 -> 0
  | Const1 -> 1
  | Buf -> args.(0)
  | Not -> not_ m args.(0)
  | And -> fold 0 1
  | Nand -> not_ m (fold 0 1)
  | Or -> fold 1 0
  | Nor -> not_ m (fold 1 0)
  | Xor -> fold 2 0
  | Xnor -> not_ m (fold 2 0)

let rec restrict m x i v =
  if x < 2 then x
  else begin
    let vx = m.vars.(x) in
    if vx > i then x
    else if vx = i then restrict m (if v then m.highs.(x) else m.lows.(x)) i v
    else begin
      let op = (if v then 5 else 4) + (i lsl 3) in
      let r = cache_find m op x i in
      if r >= 0 then r
      else begin
        let r = mk m vx (restrict m m.lows.(x) i v) (restrict m m.highs.(x) i v) in
        cache_add m op x i r;
        r
      end
    end
  end

(* --- traversals ----------------------------------------------------------------- *)

(* A per-traversal memo from internal node id to one float, or two when
   made with [~pair:true]: open addressing on an int key array (0 marks an
   empty slot), load at most one half. *)
module Memo = struct
  type t = {
    mutable keys : int array;
    mutable a : float array;
    mutable b : float array;  (* [||] unless pair *)
    mutable count : int;
  }

  let create ?(pair = false) slots =
    { keys = Array.make slots 0;
      a = Array.make slots 0.0;
      b = (if pair then Array.make slots 0.0 else [||]);
      count = 0 }

  let rec probe keys mask x i =
    let k = keys.(i) in
    if k = x || k = 0 then i else probe keys mask x ((i + 1) land mask)

  (* The slot holding [x], or the empty slot where it belongs. *)
  let find t x =
    let mask = Array.length t.keys - 1 in
    probe t.keys mask x (hash3 x 0 0 land mask)

  let mem t x = t.keys.(find t x) = x

  let grow t =
    let pair = Array.length t.b > 0 in
    let t' = create ~pair (2 * Array.length t.keys) in
    Array.iteri
      (fun i k ->
        if k <> 0 then begin
          let j = find t' k in
          t'.keys.(j) <- k;
          t'.a.(j) <- t.a.(i);
          if pair then t'.b.(j) <- t.b.(i)
        end)
      t.keys;
    t.keys <- t'.keys;
    t.a <- t'.a;
    t.b <- t'.b

  (* Record [x -> v] ([x] must be absent) and return its slot, for a
     pair memo's second component. *)
  let add t x v =
    if 2 * (t.count + 1) > Array.length t.keys then grow t;
    let i = find t x in
    t.keys.(i) <- x;
    t.a.(i) <- v;
    t.count <- t.count + 1;
    i
end

let size m x =
  let seen = Memo.create 64 in
  let rec visit x =
    if x >= 2 && not (Memo.mem seen x) then begin
      ignore (Memo.add seen x 0.0);
      visit m.lows.(x);
      visit m.highs.(x)
    end
  in
  visit x;
  seen.Memo.count

let eval m x assign =
  let rec go x = if x < 2 then x = 1 else go (if assign m.vars.(x) then m.highs.(x) else m.lows.(x)) in
  go x

(* The probability of [x] under [p], memoised in [memo]. *)
let rec scalar m memo p x =
  if x = 0 then 0.0
  else if x = 1 then 1.0
  else begin
    let i = Memo.find memo x in
    if memo.Memo.keys.(i) = x then memo.Memo.a.(i)
    else begin
      let pv = p m.vars.(x) in
      let r = ((1.0 -. pv) *. scalar m memo p m.lows.(x)) +. (pv *. scalar m memo p m.highs.(x)) in
      ignore (Memo.add memo x r);
      r
    end
  end

let prob_many m roots p =
  let memo = Memo.create 1024 in
  Array.map (scalar m memo p) roots

let prob m x p = scalar m (Memo.create 256) p x

(* Both single-variable cofactor probabilities of every root in one
   traversal.  A node ordered strictly below [var] cannot depend on it and
   is evaluated once (scalar memo, shared by both components); a node on
   [var] splits into its children's scalars; ancestors combine the pairs
   componentwise.  Each component is bit-identical to [prob_many] with
   [p var] forced to 0.0 / 1.0: at a [var] node the full evaluation
   computes [1.0 *. go low +. 0.0 *. go high] (resp. the mirror), which is
   exactly [go low] in IEEE arithmetic because every partial probability
   here is finite and non-negative (so the dropped product is +0.0 and
   the kept one is preserved by the multiplication by 1.0). *)
let prob_pair_many m roots ~var p =
  let scalar_memo = Memo.create 1024 in
  let scalar = scalar m scalar_memo p in
  let pair_memo = Memo.create ~pair:true 1024 in
  let rec pair x =
    if x = 0 then (0.0, 0.0)
    else if x = 1 then (1.0, 1.0)
    else begin
      let v = m.vars.(x) in
      if v > var then begin
        let r = scalar x in
        (r, r)
      end
      else begin
        let i = Memo.find pair_memo x in
        if pair_memo.Memo.keys.(i) = x then (pair_memo.Memo.a.(i), pair_memo.Memo.b.(i))
        else begin
          let ((r0, r1) as r) =
            if v = var then (scalar m.lows.(x), scalar m.highs.(x))
            else begin
              let l0, l1 = pair m.lows.(x) in
              let h0, h1 = pair m.highs.(x) in
              let pv = p v in
              (((1.0 -. pv) *. l0) +. (pv *. h0), ((1.0 -. pv) *. l1) +. (pv *. h1))
            end
          in
          pair_memo.Memo.b.(Memo.add pair_memo x r0) <- r1;
          r
        end
      end
    end
  in
  Array.map pair roots

let sat_fraction m x = prob m x (fun _ -> 0.5)

let any_sat m x =
  if x = 0 then None
  else begin
    let rec go x acc =
      if x = 1 then acc
      else if m.lows.(x) <> 0 then go m.lows.(x) ((m.vars.(x), false) :: acc)
      else go m.highs.(x) ((m.vars.(x), true) :: acc)
    in
    Some (List.rev (go x []))
  end
