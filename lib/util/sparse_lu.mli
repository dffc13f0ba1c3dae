(** Sparsity-aware LU with a reusable symbolic analysis.

    MNA matrices for one circuit topology keep the same nonzero pattern
    across every time step, Newton iteration and sweep lane; only the
    numeric values change. A {!t} therefore separates the two costs:

    - {e symbolic analysis} — run once per topology: a pivot order is
      taken from one dense partially-pivoted factorization of a
      representative matrix ({!Linalg.lu_factor}), the structural
      pattern is permuted accordingly and closed under elimination
      fill-in, and flat per-pivot / per-row index lists are built;
    - {e numeric refactorization} — run every {!factor}: the matrix rows
      are copied in pivot order and eliminated walking only the
      structural index lists, with no pivot search.

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
    its own. *)

type t

(** [make ~n ~pattern] prepares a handle for [n]x[n] systems whose
    structural nonzeros are [pattern] (which is copied). [pattern] must
    be the {e structural} pattern — every position any assembly could
    ever write, independent of current values (a MOSFET's [gm] may be
    numerically zero at one iterate and not the next). *)
val make : n:int -> pattern:bool array array -> t

(** [factor t a] (re)factors [a] under the stored analysis, creating or
    refreshing the analysis as needed. [a] is left intact. Raises
    [Linalg.Singular] when the system is genuinely rank-deficient or
    contains non-finite entries. *)
val factor : t -> Linalg.matrix -> unit

(** [solve t ~scratch b] overwrites [b] with the solution using the last
    {!factor}. [scratch] must hold at least [n] floats. *)
val solve : t -> scratch:float array -> float array -> unit

(** [pivot_order t] is the row order of the analysis in force ([None]
    before the first {!factor}): row [i] of the factors holds row
    [perm.(i)] of the matrix. Two factorizations of one matrix under the
    same order produce the same bits. The array is shared with [t];
    treat it as read-only. *)
val pivot_order : t -> int array option

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
