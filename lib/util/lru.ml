(* Bounded LRU cache: a hash table over an intrusive doubly-linked
   recency list. All operations are O(1) amortized. Not thread-safe on
   its own; callers that share a cache across domains must serialize
   access (see Dramstress_dram.Ops for the mutex-guarded pattern). *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  { capacity; tbl = Hashtbl.create (2 * capacity); head = None; tail = None;
    hits = 0; misses = 0; evictions = 0 }

let capacity c = c.capacity
let length c = Hashtbl.length c.tbl
let hits c = c.hits
let misses c = c.misses
let evictions c = c.evictions

let unlink c node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> c.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> c.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front c node =
  node.next <- c.head;
  node.prev <- None;
  (match c.head with Some h -> h.prev <- Some node | None -> ());
  c.head <- Some node;
  if c.tail = None then c.tail <- Some node

let find c key =
  match Hashtbl.find_opt c.tbl key with
  | None ->
    c.misses <- c.misses + 1;
    None
  | Some node ->
    c.hits <- c.hits + 1;
    unlink c node;
    push_front c node;
    Some node.value

(* membership probe that does not touch recency or hit statistics *)
let mem c key = Hashtbl.mem c.tbl key

(* most to least recently used, without touching recency or stats *)
let iter f c =
  let rec walk = function
    | None -> ()
    | Some node ->
      f node.key node.value;
      walk node.next
  in
  walk c.head

let evict_lru c =
  match c.tail with
  | None -> ()
  | Some node ->
    unlink c node;
    Hashtbl.remove c.tbl node.key;
    c.evictions <- c.evictions + 1

let add c key value =
  match Hashtbl.find_opt c.tbl key with
  | Some node ->
    node.value <- value;
    unlink c node;
    push_front c node
  | None ->
    if Hashtbl.length c.tbl >= c.capacity then evict_lru c;
    let node = { key; value; prev = None; next = None } in
    Hashtbl.replace c.tbl key node;
    push_front c node

let clear c =
  Hashtbl.reset c.tbl;
  c.head <- None;
  c.tail <- None

let reset_stats c =
  c.hits <- 0;
  c.misses <- 0;
  c.evictions <- 0

(* keys from most to least recently used, for tests and debugging *)
let keys c =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node.key :: acc) node.next
  in
  walk [] c.head
