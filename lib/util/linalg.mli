(** Dense linear algebra for circuit-sized systems (tens of unknowns).

    Matrices are row-major [float array array]; all operations are
    destructive only where documented. The LU factorization uses partial
    pivoting, which is sufficient for MNA matrices stamped with gmin
    regularization. *)

type matrix = float array array

(** [create n m] is an [n] x [m] zero matrix. *)
val create : int -> int -> matrix

(** [copy a] is a deep copy of [a]. *)
val copy : matrix -> matrix

(** [dims a] is [(rows, cols)]. *)
val dims : matrix -> int * int

(** [identity n] is the [n] x [n] identity. *)
val identity : int -> matrix

(** [mat_vec a x] is the product [a * x]. *)
val mat_vec : matrix -> float array -> float array

(** [mat_mul a b] is the product [a * b]. *)
val mat_mul : matrix -> matrix -> matrix

(** LU factorization with partial pivoting, kept with its permutation. *)
type lu

(** [lu_factor a] factors a copy of [a]. Raises [Singular] if the best
    available pivot is numerically zero. *)
val lu_factor : matrix -> lu

exception Singular of { row : int; pivot : float }
(** Raised when factorization meets a pivot column whose largest entry
    [pivot] falls below the rank threshold (the matrix's largest entry
    times 1e-14, floored at 1e-300) at elimination step [row] — the
    matrix is structurally singular or rank-deficient to working
    precision. NaN pivots are reported the same way rather than being
    divided through. *)

(** [lu_solve lu b] solves [a * x = b] for the [a] given to [lu_factor].
    [b] is not modified. *)
val lu_solve : lu -> float array -> float array

(** [lu_perm f] is the row permutation chosen by partial pivoting:
    factored row [i] holds original row [lu_perm f].(i). {!Sparse_lu}
    seeds its fixed pivot order from this. The array aliases the
    factorization's own state — do not mutate. *)
val lu_perm : lu -> int array

(** [solve a b] is [lu_solve (lu_factor a) b]. *)
val solve : matrix -> float array -> float array

(** [norm_inf x] is the max absolute entry of [x], 0 for empty. *)
val norm_inf : float array -> float

(** [norm_2 x] is the Euclidean norm of [x]. *)
val norm_2 : float array -> float

(** [axpy alpha x y] computes [y.(i) <- alpha *. x.(i) +. y.(i)] in place. *)
val axpy : float -> float array -> float array -> unit

(** [sub x y] is the fresh vector [x - y]. *)
val sub : float array -> float array -> float array

(** [residual a x b] is the fresh vector [a*x - b]. *)
val residual : matrix -> float array -> float array -> float array
