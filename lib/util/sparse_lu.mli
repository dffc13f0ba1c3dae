(** Sparsity-aware LU with a reusable symbolic analysis.

    MNA matrices for one circuit topology keep the same nonzero pattern
    across every time step, Newton iteration and sweep lane; only the
    numeric values change. The matrix is therefore passed around as a
    flat array of its structural values, one {e slot} per structural
    entry, numbered once per topology in natural row-major order
    ({!layout}). A {!t} separates the two costs of factoring it:

    - {e symbolic analysis} — run once per topology: a pivot order is
      taken from one dense partially-pivoted factorization of a
      representative matrix ({!Linalg.lu_factor}), the structural
      pattern is permuted accordingly and closed under elimination
      fill-in, and the elimination and substitutions are compiled into
      flat slot-index programs: pivot slots, multiplier slots, the
      (destination, source) pairs of every multiply-add, and the
      forward and back substitution lists;
    - {e numeric refactorization} — run every {!factor_values}: the
      structural values are copied into the factor array (their slots
      keep their numbers there), the fill-in slots are zeroed and the
      program runs, with no pivot search.

    A fixed pivot order can go stale when the matrix values drift far
    from the analysis point (a switch toggling between its on and off
    conductance, say). Every refactorization therefore guards its
    pivots: a pivot below [scale * 1e-10] aborts the elimination and
    triggers one fresh analysis at the current values — so accuracy
    degrades to at most one extra dense factorization, never to a wrong
    answer. A matrix that the dense factorization itself rejects raises
    {!Linalg.Singular} exactly like the dense path, and a matrix
    containing non-finite entries raises {!Linalg.Singular} without
    touching the stored analysis (so one poisoned solve cannot perturb
    the pivot order used by healthy ones — per-lane isolation in the
    ensemble engine depends on this).

    Activity feeds the [util.sparse_lu.symbolic_analyses] /
    [symbolic_reuse] / [numeric_refactor] / [reanalyses] telemetry
    counters and the always-on process-wide {!stats} block (the
    [--metrics] reconciliation mirror of [Ops.Cache.stats]).

    A handle must not be shared between domains; each workspace owns
    its own. A {!layout} is immutable and may be shared freely. *)

(** The slot numbering of one structural pattern. *)
type layout

(** [layout ~n ~pattern] numbers the structural entries of the [n]x[n]
    boolean [pattern] in natural row-major order. [pattern] must be the
    {e structural} pattern — every position any assembly could ever
    write, independent of current values (a MOSFET's [gm] may be
    numerically zero at one iterate and not the next). *)
val layout : n:int -> pattern:bool array array -> layout

(** [nnz l] is the number of structural entries, the length of a values
    array. *)
val nnz : layout -> int

(** [slot l row col] is the slot of entry [(row, col)], or [-1] when the
    entry is not structural. *)
val slot : layout -> int -> int -> int

type t

(** [create l] is a fresh handle for systems laid out by [l]; nothing is
    analysed until the first {!factor_values}. *)
val create : layout -> t

(** [make ~n ~pattern] is [create (layout ~n ~pattern)]. *)
val make : n:int -> pattern:bool array array -> t

(** [factor_values t values] (re)factors the system whose structural
    entries are [values] (slot order, length {!nnz}) under the stored
    analysis, creating or refreshing the analysis as needed. [values] is
    left intact. Raises [Linalg.Singular] when the system is genuinely
    rank-deficient or contains non-finite entries. *)
val factor_values : t -> float array -> unit

(** [factor t a] gathers the structural entries of the dense matrix [a]
    and runs {!factor_values} on them; entries off the pattern are
    ignored. *)
val factor : t -> Linalg.matrix -> unit

(** [solve t ~scratch b] overwrites [b] with the solution using the last
    successful factorization. [scratch] must hold at least [n] floats. *)
val solve : t -> scratch:float array -> float array -> unit

(** [pivot_order t] is the row order of the analysis in force ([None]
    before the first factorization): row [i] of the factors holds row
    [perm.(i)] of the matrix. Two factorizations of one matrix under the
    same order produce the same bits. The array is shared with [t];
    treat it as read-only. *)
val pivot_order : t -> int array option

(** The size of the compiled refactor program: structural entries, the
    fill-in entries elimination adds to them, and the multiply-adds one
    refactorization performs. *)
type program_size = { structural : int; fill : int; multiply_adds : int }

(** [program_size t] is the size of the analysis in force ([None] before
    the first factorization). *)
val program_size : t -> program_size option

(** Process-wide activity totals, readable regardless of whether
    telemetry is enabled (like [Ops.Cache.stats]): [analyses] counts
    first-time symbolic analyses, [reanalyses] the stale-pivot reruns,
    [numeric_refactor] every successful numeric factorization and
    [symbolic_reuse] the subset that reused an existing analysis. *)
type stats = {
  analyses : int;
  reanalyses : int;
  numeric_refactor : int;
  symbolic_reuse : int;
}

val stats : unit -> stats
val reset_stats : unit -> unit
