(* Cross-query materialized scan cache (paper section 4: repeated
   data-service scans dominate translated-query cost).

   Parameterless data-service calls are pure functions of the tables
   they read: a physical function returns its backing table, a logical
   one a deterministic view over other services.  [Server.invoke]
   therefore serves them from this cache across queries, keyed by the
   invocation label ("path/service:function", suffixed with the
   evaluator flavor for logical bodies — see server.ml).

   Revision safety: each entry records what it was materialized from —
   a physical scan its table and that table's version, a logical
   result the (table, version) of every physical scan served while its
   body ran — and is a hit only at the versions the statement's read
   view pinned ([Table.version] reads them).  Tables are append-only,
   so a physical scan behind its pinned version is a prefix of it: it
   is dropped and handed back to the server, which extends it by the
   new rows.  One ahead of it (a statement pinned later extended it)
   serves its first items and stays.  A logical result behind is
   dropped, one ahead is bypassed and stays: [store] never replaces an
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
   cap above which results are served but never cached (one huge scan
   must not wipe the working set).  Eviction is LRU by access stamp.

   A disabled instance ([enabled:false]) is the oracle: every lookup
   misses silently, nothing is stored, no counters move. *)

module Item = Aqua_xml.Item
module Node = Aqua_xml.Node
module Atomic = Aqua_xml.Atomic
module Table = Aqua_relational.Table
module T = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore

type source =
  | Scan of Table.t * int
  | View of (Table.t * int) list

type entry = {
  seq : Item.sequence;
  source : source;
  bytes : int;
  mutable stamp : int;  (** last access; larger = more recent *)
}

type lookup =
  | Hit of Item.sequence
  | Stale of { seq : Item.sequence; version : int; bytes : int }
  | Miss

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

let deps_of = function Scan (tbl, v) -> [ (tbl, v) ] | View deps -> deps

(* Whether [source] read some table at a later version than [than]
   holds: the pinned versions when [than] is [None]. *)
let ahead ?than source =
  let version tbl =
    match than with
    | None -> Some (Table.version tbl)
    | Some other -> List.assq_opt tbl (deps_of other)
  in
  List.exists
    (fun (tbl, v) -> match version tbl with Some w -> v > w | None -> false)
    (deps_of source)

let current source =
  List.for_all (fun (tbl, v) -> Table.version tbl = v) (deps_of source)

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
      (deps_of source)

let collect f =
  let acc = ref [] in
  let outer = Mcore.Dls.get collectors in
  Mcore.Dls.set collectors (acc :: outer);
  let result =
    Fun.protect ~finally:(fun () -> Mcore.Dls.set collectors outer) f
  in
  (result, View !acc)

(* The physical scans served in the open statement, by table: a table
   is served one list per statement even when over the caps, and the
   compiled engine's source memo, matching lists by identity, hits. *)
let statement_scans : (Table.t * Item.sequence) list ref option Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> None)

let statement f =
  match Mcore.Dls.get statement_scans with
  | Some _ -> f ()
  | None ->
    Mcore.Dls.set statement_scans (Some (ref []));
    Fun.protect ~finally:(fun () -> Mcore.Dls.set statement_scans None) f

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

let miss t =
  t.misses <- t.misses + 1;
  T.incr T.c_scan_cache_misses

let hit t (e : entry) =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock;
  t.hits <- t.hits + 1;
  T.incr T.c_scan_cache_hits

let lookup t key =
  if not t.enabled then Miss
  else begin
    let found =
      Mcore.Mutex.protect t.lock @@ fun () ->
      revalidate_unlocked t;
      match Hashtbl.find_opt t.tbl key with
      | Some e when current e.source ->
        hit t e;
        `Hit e
      | Some ({ source = Scan (tbl, v); _ } as e) when v > Table.version tbl ->
        hit t e;
        `Prefix (e, tbl)
      | Some e when ahead e.source ->
        miss t;
        `Miss
      | Some e ->
        drop t key e ~invalidated:true;
        miss t;
        `Stale e
      | None ->
        miss t;
        `Miss
    in
    match found with
    | `Hit e ->
      depend e.source;
      Hit e.seq
    | `Prefix (e, tbl) ->
      let v = Table.version tbl in
      depend (Scan (tbl, v));
      Hit (List.filteri (fun i _ -> i < v) e.seq)
    | `Stale { seq; source = Scan (_, version); bytes; _ } ->
      Stale { seq; version; bytes }
    | `Stale _ | `Miss -> Miss
  end

let scan t table produce =
  match Mcore.Dls.get statement_scans with
  | Some served when t.enabled -> (
    match List.assq_opt table !served with
    | Some seq ->
      Mcore.Mutex.protect t.lock (fun () -> t.hits <- t.hits + 1);
      T.incr T.c_scan_cache_hits;
      depend (Scan (table, Table.version table));
      seq
    | None ->
      let seq = produce () in
      served := (table, seq) :: !served;
      seq)
  | _ -> produce ()

let store ?bytes t key source (seq : Item.sequence) =
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
      let bytes =
        match bytes with Some b -> b | None -> sequence_bytes seq
      in
      (* oversized scans are served but never resident: admitting one
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
