module Node = Aqua_xml.Node
module Item = Aqua_xml.Item
module Mcore = Aqua_multicore.Mcore

(* Rows are only appended, so the row count is the data version: the
   table at version v is exactly its first v rows.  Rows and count are
   published together as one value and never change, so a reader never
   pairs one version with another version's rows.  The lists a
   snapshot serves, oldest first, are built on their first read and
   then kept with it (see [serve]). *)
type snapshot = {
  newest_first : Value.t array list;
  count : int;
  mutable rows : Value.t array list option;
  mutable items : Item.sequence option;
}

(* Per table, the newest snapshot with its rows built and the newest
   with its items built.  No closure: tables stay comparable. *)
type lists = {
  lock : Mcore.Mutex.t;  (* serializes building a list and moving these *)
  mutable rows_at : snapshot;
  mutable items_at : snapshot;
}

type t = {
  name : string;
  schema : Schema.t;
  state : snapshot Atomic.t;
  lists : lists;
}

let fresh newest_first count = { newest_first; count; rows = None; items = None }

let row_to_element ~name schema row =
  let rec children i = function
    | [] -> []
    | (c : Schema.column) :: more -> (
      match row.(i) with
      | Value.Null -> children (i + 1) more
      | v ->
        Node.element c.name [ Node.text (Value.to_string v) ]
        :: children (i + 1) more)
  in
  Node.element name (children 0 schema)

let create name schema =
  let empty = { newest_first = []; count = 0; rows = Some []; items = Some [] } in
  {
    name;
    schema;
    state = Atomic.make empty;
    lists = { lock = Mcore.Mutex.create (); rows_at = empty; items_at = empty };
  }

let insert t row =
  let row = Array.of_list row in
  match Schema.check_row t.schema row with
  | Ok () ->
    let rec publish () =
      let s = Atomic.get t.state in
      let s' = fresh (row :: s.newest_first) (s.count + 1) in
      if not (Atomic.compare_and_set t.state s s') then publish ()
    in
    publish ()
  | Error msg ->
    raise (Value.Type_error (Printf.sprintf "table %s: %s" t.name msg))

let insert_all t rows = List.iter (insert t) rows

(* A read view: the snapshots of a set of tables at one moment.
   A snapshot's rows never change, so a pin copies no row.  A second read of
   every table that finds the same snapshots proves them current
   together between the reads (an insert always publishes a fresh one);
   a pin retries only while an insert into one of its own tables
   completes inside that window of a few atomic reads. *)
type view = (t * snapshot) list

let open_view : view option Mcore.Dls.key = Mcore.Dls.new_key (fun () -> None)

let rec pin tables =
  let view = List.map (fun t -> (t, Atomic.get t.state)) tables in
  if List.for_all (fun (t, s) -> Atomic.get t.state == s) view then view
  else pin tables

let within view f =
  match Mcore.Dls.get open_view with
  | Some _ -> f ()
  | None ->
    Mcore.Dls.set open_view (Some view);
    Fun.protect ~finally:(fun () -> Mcore.Dls.set open_view None) f

let snapshot t =
  match Mcore.Dls.get open_view with
  | None -> Atomic.get t.state
  | Some view -> (
    match List.assq_opt t view with Some s -> s | None -> Atomic.get t.state)

let version t = (snapshot t).count
let cardinality = version

(* One kind of list a snapshot serves: its field, the table's newest
   snapshot with it built, and how a row becomes an element of it. *)
type 'a kind = {
  get : snapshot -> 'a list option;
  set : snapshot -> 'a list -> unit;
  newest : lists -> snapshot;
  set_newest : lists -> snapshot -> unit;
  of_row : t -> Value.t array -> 'a;
}

let rows_kind =
  { get = (fun s -> s.rows); set = (fun s l -> s.rows <- Some l);
    newest = (fun l -> l.rows_at); set_newest = (fun l s -> l.rows_at <- s);
    of_row = (fun _ row -> row) }

let items_kind =
  { get = (fun s -> s.items); set = (fun s l -> s.items <- Some l);
    newest = (fun l -> l.items_at); set_newest = (fun l s -> l.items_at <- s);
    of_row =
      (fun t ->
        let name = "ns0:" ^ t.name in
        fun row -> Item.node (row_to_element ~name t.schema row)) }

(* The snapshot's list, derived from [at], the newest snapshot with its
   list built: behind [s], [at]'s list followed by the new rows'
   elements, so its items stay physically the same; ahead of [s], its
   first [s.count] items. *)
let derive t kind at at_list s =
  if at.count <= s.count then
    let of_row = kind.of_row t in
    let rec added n rows acc =
      match rows with
      | row :: more when n > 0 -> added (n - 1) more (of_row row :: acc)
      | _ -> acc
    in
    at_list @ added (s.count - at.count) s.newest_first []
  else List.filteri (fun i _ -> i < s.count) at_list

(* A snapshot's list is built once and published in its field, which
   only ever changes from [None] to [Some], under the table's lock; the
   first read is unlocked.  OCaml's memory model makes that racy read
   safe: it returns [None] or the published list, never a torn value,
   and a list reached through it is seen fully initialized.  A reader
   that sees [None] takes the lock and reads again, so every caller of
   one snapshot gets the same list. *)
let serve t kind =
  let s = snapshot t in
  match kind.get s with
  | Some l -> l
  | None -> (
    Mcore.Mutex.protect t.lists.lock @@ fun () ->
    match kind.get s with
    | Some l -> l
    | None ->
      let at = kind.newest t.lists in
      let l = derive t kind at (Option.get (kind.get at)) s in
      kind.set s l;
      if s.count > at.count then kind.set_newest t.lists s;
      l)

let rows t = serve t rows_kind
let items t = serve t items_kind
let built_items t = (snapshot t).items

let to_flat_xml ?(ns_prefix = "ns0") t =
  let name = ns_prefix ^ ":" ^ t.name in
  List.rev_map (row_to_element ~name t.schema) (snapshot t).newest_first
