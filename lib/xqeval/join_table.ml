(* Hash-join build/probe machinery shared by the tree-walking
   evaluator ([Eval]) and the slot compiler ([Compile]).

   The table keys build-side atoms by [Atomic.hash_key].  That keying
   is not faithful to [Atomic.compare_values] in two places: untyped
   atomics compare against typed operands by casting (so
   [Untyped "5"] equals [Integer 5] though their keys differ), and a
   date equals the midnight dateTime on the same day.  Secondary keys
   cover those typed lookups.  They are marked non-primary so that an
   untyped probe never matches an untyped build atom through a typed
   key — untyped-vs-untyped comparison has string semantics, where
   "5.0" and "5" differ.  (No "s"-prefixed key is ever secondary, so
   the two key spaces cannot collide.)

   Divergence from the nested loop, by design: a probe/build pair
   whose types are not comparable (say a string against an integer)
   simply fails to match here, where [compare_values] in the nested
   loop raises [Cast_error].  The translator casts both sides of every
   SQL join predicate to the column type, so translated queries never
   hit the difference. *)

module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item

type t = {
  items : Item.t array;  (** build side, in source order *)
  tbl : (string, int * bool) Hashtbl.t;  (** key -> (row, is_primary) *)
  poison : bool;
      (** some build key had >= 2 atoms (value comparison only): every
          probe with a nonempty key must raise the cardinality error *)
  any_nonempty : bool;  (** some build key had >= 1 atoms *)
  seen_stamp : int array;
      (** probe-side dedup scratch, one cell per build row; a row is
          "seen by the current probe" when its cell equals [stamp] *)
  mutable stamp : int;  (** current probe generation, starts at 0 *)
}

(* The key of [a] cast to the type [name] when [shape] says the cast
   can succeed.  This runs once per build atom and once per probe, so
   the date/time casts (which raise on failure) are only attempted when
   the string's length and separators could match: a numeric key never
   pays an exception here. *)
let cast_key a name shape =
  if not shape then []
  else
    match Atomic.cast name a with
    | v -> [ Atomic.hash_key v ]
    | exception Atomic.Cast_error _ -> []

let secondary_keys (a : Atomic.t) : string list =
  match a with
  | Atomic.Untyped s ->
    let n = String.length s in
    cast_key a "xs:dateTime" (n = 19 && (s.[10] = 'T' || s.[10] = ' '))
    @ cast_key a "xs:time" (n = 8 && s.[2] = ':' && s.[5] = ':')
    @ cast_key a "xs:date" (n = 10 && s.[4] = '-' && s.[7] = '-')
    @ (match Atomic.scan_boolean s with
      | Some b -> [ Atomic.hash_key (Atomic.Boolean b) ]
      | None -> [])
    @ (match Atomic.scan_double s with
      | Some f -> [ Atomic.hash_key (Atomic.Double f) ]
      | None -> [])
  | Atomic.Date _ -> cast_key a "xs:dateTime" true
  | Atomic.Timestamp ts -> cast_key a "xs:date" (ts.time = { hour = 0; minute = 0; second = 0 })
  | _ -> []

(* [key_of] evaluates the build-key expression with the join variable
   bound to the given item (each evaluator supplies its own closure).
   The table indexes [items] in place: the compiled engine passes the
   array view it memoizes with the source, so a build never copies the
   source again. *)
let build (items : Item.t array) ~(key_of : Item.t -> Item.sequence)
    ~(value_cmp : bool) : t =
  let module T = Aqua_core.Telemetry in
  T.with_span "xqeval.hashjoin.build" @@ fun () ->
  T.incr T.c_hash_join_builds;
  T.add T.c_hash_join_build_rows (Array.length items);
  (* the build side is materialized wholesale: charge it to the
     budget's item governor before keying it *)
  Aqua_resilience.Budget.tick_items (Array.length items);
  let tbl = Hashtbl.create (max 16 (Array.length items)) in
  let poison = ref false in
  let any_nonempty = ref false in
  Array.iteri
    (fun i item ->
      match Item.atomize (key_of item) with
      | [] -> ()
      | _ :: _ :: _ when value_cmp ->
        any_nonempty := true;
        poison := true
      | atoms ->
        any_nonempty := true;
        List.iter
          (fun a ->
            let key = Atomic.hash_key a in
            if Hashtbl.mem tbl key then T.incr T.c_hash_join_collisions;
            Hashtbl.add tbl key (i, true);
            List.iter
              (fun k -> Hashtbl.add tbl k (i, false))
              (secondary_keys a))
          atoms)
    items;
  { items; tbl; poison = !poison; any_nonempty = !any_nonempty;
    seen_stamp = Array.make (Array.length items) 0; stamp = 0 }

let rows_for_atom t a =
  let rows_at key ~primary_only =
    List.filter_map
      (fun (row, primary) ->
        if primary || not primary_only then Some row else None)
      (Hashtbl.find_all t.tbl key)
  in
  rows_at (Atomic.hash_key a) ~primary_only:false
  @ List.concat_map
      (fun k -> rows_at k ~primary_only:true)
      (secondary_keys a)

(* Deduplicate row indices and return them ascending (= build order).
   [Hashtbl.find_all] yields newest-first, and build inserts rows in
   ascending order, so each per-key run arrives strictly descending —
   the common single-key probe is a linear dedup plus one reverse.
   Only a probe whose atoms matched through several keys can interleave
   runs, and only then is a (monomorphic int) sort paid.  The seen
   filter reuses the table-resident [seen_stamp] scratch (one cell per
   build row, generation-stamped), so a probe allocates no seen table —
   the batch evaluator issues one probe per selected row, and a
   per-probe [Hashtbl] showed up as the dominant join allocation. *)
let dedup_build_order t (matched : int list) : int list =
  match matched with
  | [] | [ _ ] -> matched
  | _ ->
    t.stamp <- t.stamp + 1;
    let gen = t.stamp in
    let uniq =
      List.filter
        (fun (r : int) ->
          if t.seen_stamp.(r) = gen then false
          else begin
            t.seen_stamp.(r) <- gen;
            true
          end)
        matched
    in
    let rec descending = function
      | (a : int) :: (b :: _ as rest) -> a > b && descending rest
      | _ -> true
    in
    if descending uniq then List.rev uniq
    else List.sort (fun (a : int) b -> compare a b) uniq

(* Matching rows (sorted, deduplicated — i.e. in build order) for one
   probe key.  Replicates [value_compare]'s cardinality rules exactly:
   an empty operand short-circuits to the empty sequence before the
   singleton check, so an empty probe never errors even against a
   multi-atom build key. *)
let matches t ~value_cmp (probe_atoms : Atomic.t list) : int list =
  let matched =
    if value_cmp then
      match probe_atoms with
      | [] -> []
      | [ a ] ->
        if t.poison then
          Error.fail "value comparison requires singleton operands"
        else rows_for_atom t a
      | _ ->
        if t.any_nonempty then
          Error.fail "value comparison requires singleton operands"
        else []
    else List.concat_map (rows_for_atom t) probe_atoms
  in
  dedup_build_order t matched

let probe t ~value_cmp probe_atoms =
  let module T = Aqua_core.Telemetry in
  T.incr T.c_hash_join_probes;
  matches t ~value_cmp probe_atoms

(* Batched probe: one call per batch instead of one closure-allocating
   [probe] per row.  [atoms_of i] supplies probe row [i]'s key atoms;
   [emit i row] receives each match in (probe row, ascending build
   row) order — identical results, cardinality errors and counter
   movement to [rows] sequential calls of [probe], with the
   per-row closures hoisted out of the loop. *)
let probe_batch t ~value_cmp ~rows ~(atoms_of : int -> Atomic.t list)
    ~(emit : int -> int -> unit) : unit =
  let module T = Aqua_core.Telemetry in
  T.add T.c_hash_join_probes rows;
  for i = 0 to rows - 1 do
    List.iter (fun r -> emit i r) (matches t ~value_cmp (atoms_of i))
  done
