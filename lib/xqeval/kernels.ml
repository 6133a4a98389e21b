(* Vectorized aggregation kernels for the columnar GROUP BY path.

   Each kernel folds one aggregate incrementally, one grouped tuple's
   column slice at a time, instead of materializing the whole group
   partition and re-walking it per aggregate call.  The folds are
   arranged to be observationally identical to the corresponding
   functions.ml implementations (fn:count / fn:sum / fn:avg / fn:min /
   fn:max / fn:empty / fn:exists) over the concatenated partition:
   same numeric promotion (integer-preserving sum), same fold order,
   and the same dynamic errors raised in the same order — a cast error
   discovered mid-stream is recorded and re-raised at [finish], exactly
   when the one-shot fold would have raised it.

   [K_sum_null] is the translated-SQL shape
   [if (fn:empty(c)) then () else fn:sum(c)] fused into one kernel:
   SQL's SUM over an empty set is NULL, not 0. *)

module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item

type kind =
  | K_count
  | K_sum
  | K_sum_null
  | K_avg
  | K_min
  | K_max
  | K_empty
  | K_exists

let name = function
  | K_count -> "count"
  | K_sum -> "sum"
  | K_sum_null -> "sum?"
  | K_avg -> "avg"
  | K_min -> "min"
  | K_max -> "max"
  | K_empty -> "empty"
  | K_exists -> "exists"

type state = {
  kind : kind;
  mutable items : int;  (** items seen (fn:count / fn:empty granularity) *)
  mutable atoms : int;  (** atoms seen after atomization (sum/avg) *)
  mutable all_int : bool;
  mutable int_sum : int;
  mutable dbl_sum : float;
  mutable best : Atomic.t option;  (** running extremum (min/max) *)
  mutable error : exn option;
      (** first deferred dynamic error, re-raised at [finish] iff the
          one-shot fold would have reached it *)
}

let create kind =
  {
    kind;
    items = 0;
    atoms = 0;
    all_int = true;
    int_sum = 0;
    dbl_sum = 0.0;
    best = None;
    error = None;
  }

let numeric_update fname st a =
  st.atoms <- st.atoms + 1;
  (match a with Atomic.Integer i -> st.int_sum <- st.int_sum + i
  | _ -> st.all_int <- false);
  match Functions.numeric_of_atomic fname a with
  | f -> st.dbl_sum <- st.dbl_sum +. f
  | exception e -> if st.error = None then st.error <- Some e

(* [a] already read as fn:min/fn:max read it *)
let extremum_update st a =
  if st.error = None then
    match st.best with
    | None -> st.best <- Some a
    | Some best -> (
      match Atomic.compare_values a best with
      | c ->
        if (match st.kind with K_min -> c < 0 | _ -> c > 0) then
          st.best <- Some a
      | exception e -> st.error <- Some e)

let update st (seq : Item.sequence) =
  match st.kind with
  | K_count | K_empty | K_exists ->
    st.items <- st.items + List.length seq
  | K_sum | K_sum_null ->
    st.items <- st.items + List.length seq;
    List.iter (numeric_update "fn:sum" st) (Item.atomize seq)
  | K_avg -> List.iter (numeric_update "fn:avg" st) (Item.atomize seq)
  | K_min | K_max ->
    if st.error = None then
      List.iter
        (fun a -> extremum_update st (Functions.untype_extremum a))
        (Item.atomize seq)

(* A column of tuple inputs with their numeric reading done once.  A
   derived cell column (compile.ml) memoizes one per scan source, so the
   per-row update below is an integer or float add instead of atomizing
   and re-parsing the cell's text.  [update_at st (cells col) r] is
   [update st col.(r)] for every kind: same counts, same
   integer-preserving sum, same fold order.  An input whose reading is
   not one clean number (tag [slow]) goes through [update] itself, so
   its error is raised (deferred) under the kernel's own function name
   exactly as before.  An input of one item atomizes to one atom, and
   one of no items to none, so the tag also gives the item count. *)
let no_atoms = '0'
let int_atom = 'i'  (* one xs:integer, in [ints] *)
let num_atom = 'n'  (* one atom numeric_of_atomic reads, in [nums] *)
let slow = 's'

type cells = {
  seqs : Item.sequence array;
  tags : Bytes.t;
  ints : int array;
  nums : float array;
  mutable exts : Atomic.t array;  (* min/max readings, on first use *)
}

(* [cells seqs], reusing [prev]'s readings of its rows, which are the
   first rows of [seqs]. *)
let cells_from prev (seqs : Item.sequence array) : cells =
  let n = Array.length seqs in
  let tags = Bytes.make n slow in
  let ints = Array.make n 0 and nums = Array.make n 0.0 in
  let from =
    match prev with
    | None -> 0
    | Some c ->
      let k = Bytes.length c.tags in
      Bytes.blit c.tags 0 tags 0 k;
      Array.blit c.ints 0 ints 0 k;
      Array.blit c.nums 0 nums 0 k;
      k
  in
  for r = from to n - 1 do
    match seqs.(r) with
    | [] -> Bytes.set tags r no_atoms
    | [ _ ] as seq -> (
      match Item.atomize seq with
      | [ Atomic.Integer i ] ->
        Bytes.set tags r int_atom;
        ints.(r) <- i
      | [ a ] -> (
        (* the name only labels an error, which is left to [update] *)
        match Functions.numeric_of_atomic "" a with
        | f ->
          Bytes.set tags r num_atom;
          nums.(r) <- f
        | exception _ -> ())
      | _ -> ())
    | _ -> ()
  done;
  { seqs; tags; ints; nums; exts = [||] }

let cells seqs = cells_from None seqs
let extend_cells c seqs = cells_from (Some c) seqs

(* The min/max reading of a fast row's one atom, interned per value. *)
let exts c =
  if Array.length c.exts = 0 && Array.length c.seqs > 0 then begin
    let seen = Hashtbl.create 64 in
    c.exts <-
      Array.mapi
        (fun r seq ->
          let tag = Bytes.get c.tags r in
          match Item.atomize seq with
          | [ a ] when tag = int_atom || tag = num_atom -> (
            let a = Functions.untype_extremum a in
            match Hashtbl.find_opt seen a with
            | Some a -> a
            | None ->
              Hashtbl.add seen a a;
              a)
          | _ -> Atomic.Integer 0)
        c.seqs
  end;
  c.exts

let update_at st c r =
  let tag = Bytes.unsafe_get c.tags r in
  if tag = slow then update st c.seqs.(r)
  else
    let one = if tag = no_atoms then 0 else 1 in
    match st.kind with
    | K_count | K_empty | K_exists -> st.items <- st.items + one
    | K_sum | K_sum_null | K_avg ->
      if st.kind <> K_avg then st.items <- st.items + one;
      if tag = int_atom then begin
        let i = c.ints.(r) in
        st.atoms <- st.atoms + 1;
        st.int_sum <- st.int_sum + i;
        st.dbl_sum <- st.dbl_sum +. float_of_int i
      end
      else if tag = num_atom then begin
        st.atoms <- st.atoms + 1;
        st.all_int <- false;
        st.dbl_sum <- st.dbl_sum +. c.nums.(r)
      end
    | K_min | K_max ->
      if tag <> no_atoms && st.error = None then
        extremum_update st (exts c).(r)

let finish_sum st =
  if st.atoms = 0 then Item.of_int 0
  else if st.all_int then [ Item.atomic (Atomic.Integer st.int_sum) ]
  else
    match st.error with
    | Some e -> raise e
    | None -> [ Item.atomic (Atomic.Double st.dbl_sum) ]

let finish st : Item.sequence =
  match st.kind with
  | K_count -> Item.of_int st.items
  | K_empty -> Item.of_bool (st.items = 0)
  | K_exists -> Item.of_bool (st.items > 0)
  | K_sum -> finish_sum st
  | K_sum_null -> if st.items = 0 then [] else finish_sum st
  | K_avg ->
    if st.atoms = 0 then []
    else (
      match st.error with
      | Some e -> raise e
      | None -> Item.of_double (st.dbl_sum /. float_of_int st.atoms))
  | K_min | K_max -> (
    match st.error with
    | Some e -> raise e
    | None -> (
      match st.best with None -> [] | Some a -> [ Item.atomic a ]))
