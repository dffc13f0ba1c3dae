module L = Linalg
module Tel = Telemetry

let c_analyses = Tel.Counter.make "util.sparse_lu.symbolic_analyses"
let c_reuse = Tel.Counter.make "util.sparse_lu.symbolic_reuse"
let c_refactor = Tel.Counter.make "util.sparse_lu.numeric_refactor"
let c_reanalyses = Tel.Counter.make "util.sparse_lu.reanalyses"

(* always-on mirrors of the counters above, so [--metrics] can reconcile
   the telemetry block against an independent tally (the same contract
   [Ops.Cache.stats] provides for the memo cache) *)
let g_analyses = Atomic.make 0
let g_reuse = Atomic.make 0
let g_refactor = Atomic.make 0
let g_reanalyses = Atomic.make 0

type stats = {
  analyses : int;
  reanalyses : int;
  numeric_refactor : int;
  symbolic_reuse : int;
}

let stats () =
  {
    analyses = Atomic.get g_analyses;
    reanalyses = Atomic.get g_reanalyses;
    numeric_refactor = Atomic.get g_refactor;
    symbolic_reuse = Atomic.get g_reuse;
  }

let reset_stats () =
  Atomic.set g_analyses 0;
  Atomic.set g_reuse 0;
  Atomic.set g_refactor 0;
  Atomic.set g_reanalyses 0

(* The compiled programs pack each pair of indices into one int, the
   first in the low [pair_bits] bits and the second above them: one load
   per multiply-add or substitution term instead of two. Every factor
   slot is below [n * n], which [layout] bounds accordingly. *)
let pair_bits = 31
let pair_mask = (1 lsl pair_bits) - 1
let[@inline] pair a b = a lor (b lsl pair_bits)
let[@inline] first p = p land pair_mask
let[@inline] second p = p lsr pair_bits

(* structural entries numbered row-major: row [i] owns the slots
   [row_start.(i) .. row_start.(i + 1) - 1], slot [s] sits in column
   [col_idx.(s)] *)
type layout = { n : int; row_start : int array; col_idx : int array }

let layout ~n ~pattern =
  if Array.length pattern <> n then invalid_arg "Sparse_lu.layout: pattern rows";
  if n * n > pair_mask then invalid_arg "Sparse_lu.layout: system too large";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Sparse_lu.layout: pattern cols")
    pattern;
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let k = ref 0 in
    Array.iter (fun b -> if b then incr k) pattern.(i);
    row_start.(i + 1) <- row_start.(i) + !k
  done;
  let col_idx = Array.make row_start.(n) 0 in
  for i = 0 to n - 1 do
    let s = ref row_start.(i) in
    Array.iteri
      (fun j b ->
        if b then begin
          col_idx.(!s) <- j;
          incr s
        end)
      pattern.(i)
  done;
  { n; row_start; col_idx }

let nnz l = l.row_start.(l.n)

let slot l row col =
  let rec find s =
    if s >= l.row_start.(row + 1) then -1
    else if l.col_idx.(s) = col then s
    else find (s + 1)
  in
  find l.row_start.(row)

(* A compiled analysis. The factor array [f] keeps every structural
   entry in its own slot (so a refactor loads the values with one blit)
   and appends the fill-in slots after them. *)
type analysis = {
  perm : int array;      (* factored row i holds the matrix's row perm.(i) *)
  f : float array;       (* structural slots, then fill; holds the factors *)
  piv : int array;       (* per pivot k: slot of (k, k) *)
  mul_start : int array; (* per pivot k: its multipliers' range in [mul] *)
  mul : int array;       (* slot of each (i, k), i > k, rows ascending *)
  upd_start : int array; (* per multiplier: its pairs' range in [upd] *)
  upd : int array;       (* (dst, src) slot pair of each multiply-add *)
  fwd_start : int array; (* per row i: its pairs' range in [fwd] *)
  fwd : int array;       (* (slot, col) of each (i, j), j < i, ascending *)
  bwd_start : int array;
  bwd : int array;       (* (slot, col) of each (i, j), j > i, ascending *)
}

type t = {
  lay : layout;
  mutable analysis : analysis option;
  mutable gather : float array;  (* [factor]'s values buffer *)
}

let create lay = { lay; analysis = None; gather = [||] }
let make ~n ~pattern = create (layout ~n ~pattern)

(* internal: a guarded pivot fell below the staleness threshold *)
exception Stale

let row_of_slot l s =
  let i = ref 0 in
  while l.row_start.(!i + 1) <= s do
    incr i
  done;
  !i

let check_finite l values =
  for s = 0 to nnz l - 1 do
    let v = values.(s) in
    if not (v -. v = 0.0) then
      (* a non-finite system is as unusable as a singular one, and —
         critically — must NOT reach the dense analysis below: an
         all-Inf matrix can factor "successfully" into a garbage pivot
         order that would then poison every later solve sharing this
         handle *)
      raise (L.Singular { row = row_of_slot l s; pivot = v })
  done

(* Compile the elimination under row order [perm]: close the permuted
   structural pattern under fill-in, number the fill slots, and flatten
   the elimination and both substitutions into slot-index programs
   walking pivots, rows and columns in ascending order. Every array is
   sized from counts taken first. *)
let compile l perm =
  let n = l.n in
  let nnz = nnz l in
  (* factor slot of (factored row i, column j); -1 off the closure *)
  let fs = Array.make (n * n) (-1) in
  for i = 0 to n - 1 do
    let r = perm.(i) in
    for s = l.row_start.(r) to l.row_start.(r + 1) - 1 do
      fs.((i * n) + l.col_idx.(s)) <- s
    done
  done;
  let at i j = fs.((i * n) + j) in
  let next = ref nnz in
  let fill i j =
    if at i j < 0 then begin
      fs.((i * n) + j) <- !next;
      incr next
    end
  in
  for k = 0 to n - 1 do
    (* a pivot the dense factorization accepted is never off the
       closure; a slot for it anyway keeps the program total *)
    fill k k;
    for i = k + 1 to n - 1 do
      if at i k >= 0 then
        for j = k + 1 to n - 1 do
          if at k j >= 0 then fill i j
        done
    done
  done;
  let n_low = ref 0 and n_up = ref 0 and n_upd = ref 0 in
  for k = 0 to n - 1 do
    let up = ref 0 in
    for j = k + 1 to n - 1 do
      if at k j >= 0 then incr up
    done;
    for i = k + 1 to n - 1 do
      if at i k >= 0 then begin
        incr n_low;
        n_upd := !n_upd + !up
      end
    done;
    n_up := !n_up + !up
  done;
  let mul_start = Array.make (n + 1) 0 and mul = Array.make !n_low 0 in
  let upd_start = Array.make (!n_low + 1) 0 in
  let upd = Array.make !n_upd 0 in
  let m = ref 0 and u = ref 0 in
  for k = 0 to n - 1 do
    mul_start.(k) <- !m;
    for i = k + 1 to n - 1 do
      if at i k >= 0 then begin
        mul.(!m) <- at i k;
        upd_start.(!m) <- !u;
        for j = k + 1 to n - 1 do
          if at k j >= 0 then begin
            upd.(!u) <- pair (at i j) (at k j);
            incr u
          end
        done;
        incr m
      end
    done
  done;
  mul_start.(n) <- !m;
  upd_start.(!m) <- !u;
  let substitution ~count ~lo ~hi =
    let start = Array.make (n + 1) 0 and pairs = Array.make count 0 in
    let p = ref 0 in
    for i = 0 to n - 1 do
      start.(i) <- !p;
      for j = lo i to hi i do
        if at i j >= 0 then begin
          pairs.(!p) <- pair (at i j) j;
          incr p
        end
      done
    done;
    start.(n) <- !p;
    (start, pairs)
  in
  let fwd_start, fwd =
    substitution ~count:!n_low ~lo:(fun _ -> 0) ~hi:(fun i -> i - 1)
  in
  let bwd_start, bwd =
    substitution ~count:!n_up ~lo:(fun i -> i + 1) ~hi:(fun _ -> n - 1)
  in
  {
    perm;
    f = Array.make !next 0.0;
    piv = Array.init n (fun k -> at k k);
    mul_start;
    mul;
    upd_start;
    upd;
    fwd_start;
    fwd;
    bwd_start;
    bwd;
  }

(* pivot order from one dense partially-pivoted factorization of the
   values themselves (raises L.Singular for rank-deficient systems); the
   factors are discarded, so their permutation needs no copy *)
let analyse t values =
  let l = t.lay in
  check_finite l values;
  let dense = L.create l.n l.n in
  for i = 0 to l.n - 1 do
    for s = l.row_start.(i) to l.row_start.(i + 1) - 1 do
      dense.(i).(l.col_idx.(s)) <- values.(s)
    done
  done;
  let an = compile l (L.lu_perm (L.lu_factor dense)) in
  t.analysis <- Some an;
  an

(* Numeric refactorization under a fixed analysis: load the values,
   zero the fill, run the program. With [strict = false] a pivot below
   [scale * 1e-10] raises [Stale] — values have drifted too far from the
   analysis point for its pivot order to be trusted. With
   [strict = true] (used right after a fresh analysis, whose dense
   factorization accepted these exact pivots at its own [scale * 1e-14]
   threshold) the dense threshold applies, so the pass cannot loop:
   what dense accepted, strict accepts. The scale is the largest
   structural entry (off-pattern entries are exactly 0.0). *)
let eliminate t an values ~strict =
  let nnz = nnz t.lay and f = an.f in
  Array.blit values 0 f 0 nnz;
  Array.fill f nnz (Array.length f - nnz) 0.0;
  let scale = ref 0.0 in
  for s = 0 to nnz - 1 do
    let av = Float.abs (Array.unsafe_get values s) in
    if av > !scale then scale := av
  done;
  let threshold =
    Float.max 1e-300 (!scale *. if strict then 1e-14 else 1e-10)
  in
  let mul = an.mul and upd_start = an.upd_start and upd = an.upd in
  for k = 0 to t.lay.n - 1 do
    let pkk = f.(an.piv.(k)) in
    (* [not >=] rather than [<] so a NaN pivot is also caught *)
    if not (Float.abs pkk >= threshold) then
      if strict then raise (L.Singular { row = k; pivot = pkk })
      else raise_notrace Stale;
    for mi = an.mul_start.(k) to an.mul_start.(k + 1) - 1 do
      let ms = Array.unsafe_get mul mi in
      let m = Array.unsafe_get f ms /. pkk in
      Array.unsafe_set f ms m;
      if m <> 0.0 then
        for u = Array.unsafe_get upd_start mi
            to Array.unsafe_get upd_start (mi + 1) - 1 do
          let p = Array.unsafe_get upd u in
          let d = first p and s = second p in
          Array.unsafe_set f d
            (Array.unsafe_get f d -. (m *. Array.unsafe_get f s))
        done
    done
  done

let record_refactor ~reused =
  Tel.Counter.incr c_refactor;
  Atomic.incr g_refactor;
  if reused then begin
    Tel.Counter.incr c_reuse;
    Atomic.incr g_reuse
  end

let factor_values t values =
  if Array.length values <> nnz t.lay then
    invalid_arg "Sparse_lu.factor_values: values length";
  match t.analysis with
  | None ->
    Tel.Counter.incr c_analyses;
    Atomic.incr g_analyses;
    eliminate t (analyse t values) values ~strict:true;
    record_refactor ~reused:false
  | Some an -> begin
    match eliminate t an values ~strict:false with
    | () -> record_refactor ~reused:true
    | exception Stale ->
      Tel.Counter.incr c_reanalyses;
      Atomic.incr g_reanalyses;
      (* [analyse] validates finiteness and raises L.Singular before
         replacing [t.analysis], so a poisoned matrix leaves the stored
         pivot order untouched for the next healthy solve *)
      eliminate t (analyse t values) values ~strict:true;
      record_refactor ~reused:false
  end

let factor t a =
  let l = t.lay in
  if Array.length t.gather <> nnz l then t.gather <- Array.make (nnz l) 0.0;
  for i = 0 to l.n - 1 do
    let row = a.(i) in
    for s = l.row_start.(i) to l.row_start.(i + 1) - 1 do
      t.gather.(s) <- row.(l.col_idx.(s))
    done
  done;
  factor_values t t.gather

(* a reanalysis installs a fresh [perm] array and never mutates the old
   one, so handing it out without a copy is safe *)
let pivot_order t = Option.map (fun an -> an.perm) t.analysis

type program_size = { structural : int; fill : int; multiply_adds : int }

let program_size t =
  Option.map
    (fun an ->
      let nnz = nnz t.lay in
      { structural = nnz; fill = Array.length an.f - nnz;
        multiply_adds = Array.length an.upd })
    t.analysis

let solve t ~scratch b =
  let an =
    match t.analysis with
    | Some an -> an
    | None -> invalid_arg "Sparse_lu.solve: no factorization"
  in
  let n = t.lay.n and f = an.f in
  assert (Array.length b = n);
  assert (Array.length scratch >= n);
  for i = 0 to n - 1 do
    scratch.(i) <- b.(an.perm.(i))
  done;
  (* forward substitution: L has unit diagonal *)
  let fwd = an.fwd in
  for i = 1 to n - 1 do
    let lo = an.fwd_start.(i) and hi = an.fwd_start.(i + 1) in
    if hi > lo then begin
      let s = ref scratch.(i) in
      for p = lo to hi - 1 do
        let q = Array.unsafe_get fwd p in
        s :=
          !s
          -. (Array.unsafe_get f (first q)
             *. Array.unsafe_get scratch (second q))
      done;
      scratch.(i) <- !s
    end
  done;
  (* back substitution *)
  let bwd = an.bwd in
  for i = n - 1 downto 0 do
    let s = ref scratch.(i) in
    for p = an.bwd_start.(i) to an.bwd_start.(i + 1) - 1 do
      let q = Array.unsafe_get bwd p in
      s :=
        !s
        -. (Array.unsafe_get f (first q) *. Array.unsafe_get scratch (second q))
    done;
    scratch.(i) <- !s /. f.(an.piv.(i))
  done;
  Array.blit scratch 0 b 0 n
