(** Bounded least-recently-used cache.

    A hash table paired with an intrusive recency list; {!find} and
    {!add} are O(1) amortized. When the cache is full, adding a new key
    silently evicts the least recently used entry.

    Keys are compared with structural equality and hashed with
    [Hashtbl.hash]; avoid keys containing functions or cyclic values.
    The cache is not synchronized — guard shared instances with a mutex
    when used from several domains. *)

type ('k, 'v) t

(** [create ?capacity ()] makes an empty cache (default capacity 256).
    Raises [Invalid_argument] if [capacity < 1]. *)
val create : ?capacity:int -> unit -> ('k, 'v) t

(** [find c k] returns the cached value and marks it most recently used.
    Updates the hit/miss statistics. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [mem c k] probes membership without touching recency or stats. *)
val mem : ('k, 'v) t -> 'k -> bool

(** [iter f c] applies [f] to every binding, from most to least
    recently used, without touching recency or stats. [f] must not
    modify [c]. *)
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit

(** [add c k v] inserts or overwrites the binding and marks it most
    recently used, evicting the LRU entry when at capacity. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

(** Cumulative {!find} statistics since creation or {!reset_stats}. *)
val hits : ('k, 'v) t -> int

val misses : ('k, 'v) t -> int

(** [evictions c] counts entries silently dropped by capacity pressure
    since creation or {!reset_stats}. *)
val evictions : ('k, 'v) t -> int

val reset_stats : ('k, 'v) t -> unit

(** [clear c] drops every entry (statistics are kept). *)
val clear : ('k, 'v) t -> unit

(** [keys c] lists keys from most to least recently used. *)
val keys : ('k, 'v) t -> 'k list
