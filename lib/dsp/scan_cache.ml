(* Cross-query materialized result cache for logical data-service
   calls (paper section 4: repeated data-service calls dominate
   translated-query cost).

   A parameterless logical function is a deterministic view over the
   tables its body reads.  [Server.invoke] therefore serves it from this
   cache across queries, keyed by the invocation label suffixed with the
   evaluator flavor (see server.ml).  A physical function's answer is
   its table's rows as elements: each version's list lives on the
   table's snapshot ([Table.items]), so the cache holds none; it only
   counts those serves ([scanned]) and records them as dependencies.

   Revision safety: each entry records what it was materialized from —
   the (table, version) of every physical scan served while its body
   ran — and is a hit only at the versions the statement's read view
   pinned ([Table.version] reads them).  An entry behind them is
   dropped; one ahead is bypassed and stays: [store] never replaces an
   entry by one read at older versions, so statements pinned at
   different versions do not thrash a key.  An insert therefore
   invalidates only what read its table.  A metadata change (the
   application's revision) still empties the whole cache.

   Budgets: the materialization toll ([Budget.tick_items] over the
   served row count) is charged by [Server.invoke] at serve time,
   identically for a cold fetch and a cache hit, so warm and cold runs
   of one query see the same budget accounting and caching cannot be
   used to evade governors.  Capacity is bounded three ways: entry
   count, resident bytes (structural estimate), and a per-entry row
   cap above which results are served but never cached (one huge
   result must not wipe the working set).  Eviction is LRU by access
   stamp.

   A disabled instance ([enabled:false]) is the oracle: every lookup
   misses silently, nothing is stored, no counters move. *)

module Item = Aqua_xml.Item
module Node = Aqua_xml.Node
module Atomic = Aqua_xml.Atomic
module Table = Aqua_relational.Table
module T = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore

type source = (Table.t * int) list

type entry = {
  seq : Item.sequence;
  source : source;
  bytes : int;
  mutable stamp : int;  (** last access; larger = more recent *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** capacity evictions only *)
  invalidations : int;  (** entries dropped as stale *)
  entries : int;
  bytes : int;  (** resident estimate *)
}

type t = {
  app : Artifact.application;
  enabled : bool;
  lock : Mcore.Mutex.t;
      (** guards [tbl], the byte/stat accounting and every entry's
          [stamp]; per-instance, so two servers' caches never contend.
          Not re-entrant: internal helpers assume it held. *)
  max_entries : int;
  max_bytes : int;
  max_rows : int;
  tbl : (string, entry) Hashtbl.t;
  mutable seen_revision : int;
  mutable clock : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(enabled = true) ?(max_entries = 64)
    ?(max_bytes = 8 * 1024 * 1024) ?(max_rows = 100_000) app =
  {
    app;
    enabled;
    lock = Mcore.Mutex.create ();
    max_entries = max 1 max_entries;
    max_bytes = max 1 max_bytes;
    max_rows = max 1 max_rows;
    tbl = Hashtbl.create 16;
    seen_revision = Artifact.revision app;
    clock = 0;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let stats t =
  Mcore.Mutex.protect t.lock @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    entries = Hashtbl.length t.tbl;
    bytes = t.bytes;
  }

(* ------------------------------------------------------------------ *)
(* Size estimation                                                    *)

(* A cheap structural estimate — per-node overhead plus payload string
   lengths.  It only has to be monotone in actual memory use for the
   byte budget to bound the cache sensibly. *)

let atomic_bytes = function
  | Atomic.String s | Atomic.Untyped s -> 16 + String.length s
  | _ -> 16

let rec node_bytes = function
  | Node.Text s -> 16 + String.length s
  | Node.Element { name; attrs; children } ->
    List.fold_left
      (fun acc (k, v) -> acc + 16 + String.length k + String.length v)
      (32 + String.length name)
      attrs
    + List.fold_left (fun acc c -> acc + node_bytes c) 0 children

let item_bytes = function
  | Item.Atomic a -> atomic_bytes a
  | Item.Node n -> node_bytes n

let sequence_bytes seq = List.fold_left (fun acc i -> acc + item_bytes i) 0 seq

(* ------------------------------------------------------------------ *)
(* Dependencies                                                       *)

(* Whether [source] read some table at a later version than [than]
   holds: the pinned versions when [than] is [None]. *)
let ahead ?than source =
  let version tbl =
    match than with
    | None -> Some (Table.version tbl)
    | Some other -> List.assq_opt tbl other
  in
  List.exists
    (fun (tbl, v) -> match version tbl with Some w -> v > w | None -> false)
    source

let current source = List.for_all (fun (tbl, v) -> Table.version tbl = v) source

(* The open collections of this domain, innermost first: each gathers
   the table versions served while one logical body runs.  A nested
   logical miss passes its own on through its [store]. *)
let collectors : (Table.t * int) list ref list Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> [])

let depend source =
  match Mcore.Dls.get collectors with
  | [] -> ()
  | acc :: _ ->
    List.iter
      (fun (tbl, v) ->
        if not (List.exists (fun (t', v') -> t' == tbl && v' = v) !acc) then
          acc := (tbl, v) :: !acc)
      source

let collect f =
  let acc = ref [] in
  let outer = Mcore.Dls.get collectors in
  Mcore.Dls.set collectors (acc :: outer);
  let result =
    Fun.protect ~finally:(fun () -> Mcore.Dls.set collectors outer) f
  in
  (result, !acc)

(* ------------------------------------------------------------------ *)
(* Invalidation and eviction                                          *)

let drop t key (e : entry) ~invalidated =
  Hashtbl.remove t.tbl key;
  t.bytes <- t.bytes - e.bytes;
  T.add T.c_scan_cache_bytes (-e.bytes);
  if invalidated then t.invalidations <- t.invalidations + 1
  else begin
    t.evictions <- t.evictions + 1;
    T.incr T.c_scan_cache_evictions
  end

let flush_unlocked t =
  let all = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl [] in
  List.iter (fun (k, e) -> drop t k e ~invalidated:true) all

let flush t = Mcore.Mutex.protect t.lock (fun () -> flush_unlocked t)

(* Empty the cache the moment the application's metadata revision
   moves — called on every cache touch.  Row inserts are checked per
   entry instead. *)
let revalidate_unlocked t =
  let rev = Artifact.revision t.app in
  if rev <> t.seen_revision then begin
    flush_unlocked t;
    t.seen_revision <- rev
  end

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best.stamp <= e.stamp -> acc
        | _ -> Some (k, e))
      t.tbl None
  in
  match victim with
  | Some (k, e) -> drop t k e ~invalidated:false
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Lookup / store                                                     *)

let count t ~hit =
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  T.incr (if hit then T.c_scan_cache_hits else T.c_scan_cache_misses)

let lookup t key =
  if not t.enabled then None
  else begin
    let found =
      Mcore.Mutex.protect t.lock @@ fun () ->
      revalidate_unlocked t;
      let found =
        match Hashtbl.find_opt t.tbl key with
        | Some e when current e.source ->
          t.clock <- t.clock + 1;
          e.stamp <- t.clock;
          Some e
        | Some e when ahead e.source -> None
        | Some e ->
          drop t key e ~invalidated:true;
          None
        | None -> None
      in
      count t ~hit:(Option.is_some found);
      found
    in
    Option.iter (fun e -> depend e.source) found;
    Option.map (fun e -> e.seq) found
  end

let scanned t table ~hit =
  if t.enabled then begin
    Mcore.Mutex.protect t.lock (fun () -> count t ~hit);
    depend [ (table, Table.version table) ]
  end

let store t key source (seq : Item.sequence) =
  if t.enabled then begin
    depend source;
    Mcore.Mutex.protect t.lock @@ fun () ->
    revalidate_unlocked t;
    let resident =
      match Hashtbl.find_opt t.tbl key with
      | Some e when not (ahead ~than:e.source source) -> true
      | Some e ->
        drop t key e ~invalidated:true;
        false
      | None -> false
    in
    if not resident then begin
      let rows = List.length seq in
      let bytes = sequence_bytes seq in
      (* oversized results are served but never resident: admitting one
         would evict the entire working set for a single entry *)
      if rows <= t.max_rows && bytes <= t.max_bytes then begin
        t.clock <- t.clock + 1;
        Hashtbl.replace t.tbl key
          { seq; source; bytes; stamp = t.clock };
        t.bytes <- t.bytes + bytes;
        T.add T.c_scan_cache_bytes bytes;
        while
          Hashtbl.length t.tbl > t.max_entries || t.bytes > t.max_bytes
        do
          evict_lru t
        done
      end
    end
  end
