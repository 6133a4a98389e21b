(* Vectorized aggregation kernels for the columnar GROUP BY path.

   Each kernel folds one aggregate incrementally, one grouped tuple's
   column slice at a time, instead of materializing the whole group
   partition and re-walking it per aggregate call.  The folds are
   arranged to be observationally identical to the corresponding
   functions.ml implementations (fn:count / fn:sum / fn:avg / fn:min /
   fn:max / fn:empty / fn:exists) over the concatenated partition:
   same numeric promotion (integer-preserving sum), same fold order,
   and the same dynamic errors raised in the same order — a cast error
   discovered mid-stream is recorded and re-raised at [result], exactly
   when the one-shot fold would have raised it.

   [K_sum_null] is the translated-SQL shape
   [if (fn:empty(c)) then () else fn:sum(c)] fused into one kernel:
   SQL's SUM over an empty set is NULL, not 0.

   The state of one kernel spec for every group of an invocation is one
   struct-of-arrays accumulator indexed by group slot ([acc]): unboxed
   sums and plain int counts, so folding a memoized clean number
   allocates nothing. *)

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

(* ------------------------------------------------------------------ *)
(* Cell readings                                                       *)

(* A column of tuple inputs with their numeric reading done once.  A
   derived cell column (compile.ml) memoizes one per scan source, so the
   per-row update below is an integer or float add instead of atomizing
   and re-parsing the cell's text.  Folding row [r] through the reading
   is folding [seqs.(r)]: same counts, same integer-preserving sum,
   same min/max reading, same fold order.  An input whose reading is
   not one clean number (tag [slow]) goes through the generic [add],
   so its error is raised (deferred) under the kernel's own function
   name exactly as before.  An input of one item atomizes to one atom,
   and one of no items to none, so the tag also gives the item count. *)
let no_atoms = '0'
let int_atom = 'i'  (* one xs:integer, in [ints] *)
let dbl_atom = 'n'  (* one xs:double or number-like untyped atom, in [nums] *)
let dec_atom = 'd'  (* one xs:decimal, in [nums] *)
let slow = 's'

type cells = {
  seqs : Item.sequence array;
  tags : Bytes.t;
  ints : int array;
  nums : float array;
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
      | [ Atomic.Decimal f ] ->
        Bytes.set tags r dec_atom;
        nums.(r) <- f
      | [ a ] -> (
        (* the name only labels an error, which is left to [add] *)
        match Functions.numeric_of_atomic "" a with
        | f ->
          Bytes.set tags r dbl_atom;
          nums.(r) <- f
        | exception _ -> ())
      | _ -> ())
    | _ -> ()
  done;
  { seqs; tags; ints; nums }

let cells seqs = cells_from None seqs
let extend_cells c seqs = cells_from (Some c) seqs

(* ------------------------------------------------------------------ *)
(* Accumulators                                                        *)

(* One spec's accumulators, by group slot.  Only the arrays its kind
   reads are allocated; the others stay [||].
   - [items]: items seen (count, empty, exists, sum?);
   - [atoms], [dbl]: atoms seen after atomization and their sum as
     doubles (sum, sum?, avg);
   - [nonint], [int_sum]: atoms that were not xs:integer, and the sum
     of those that were (sum, sum?: an all-integer sum stays integer);
   - [best_tag] and the winning atom by type (min, max): [best_int] for
     xs:integer, [best_num] for xs:double and xs:decimal, [best_other]
     for any other type, allocated on first use;
   - [errors]: the first deferred dynamic error per slot, allocated when
     the first one appears. *)
exception No_error

let none = 'x'  (* no extremum yet *)
let best_int_tag = 'i'
let best_dbl_tag = 'n'
let best_dec_tag = 'd'
let best_other_tag = 'o'
let other_dummy = Atomic.Integer 0

type acc = {
  kind : kind;
  mutable cap : int;
  mutable items : int array;
  mutable atoms : int array;
  mutable dbl : float array;
  mutable nonint : int array;
  mutable int_sum : int array;
  mutable best_tag : Bytes.t;
  mutable best_int : int array;
  mutable best_num : float array;
  mutable best_other : Atomic.t array;
  mutable errors : exn array;
}

let counts_items = function
  | K_count | K_empty | K_exists | K_sum_null -> true
  | K_sum | K_avg | K_min | K_max -> false

let sums = function
  | K_sum | K_sum_null | K_avg -> true
  | K_count | K_empty | K_exists | K_min | K_max -> false

let sums_ints = function
  | K_sum | K_sum_null -> true
  | K_count | K_empty | K_exists | K_avg | K_min | K_max -> false

let extremum = function
  | K_min | K_max -> true
  | K_count | K_empty | K_exists | K_sum | K_sum_null | K_avg -> false

(* [old]'s slots followed by fresh ones, [n] in all; an unused array
   ([old] and [fresh] both empty) stays empty *)
let regrow old fresh =
  Array.blit old 0 fresh 0 (Array.length old);
  fresh

let ints_if used n = if used then Array.make n 0 else [||]
let floats_if used n = if used then Array.make n 0.0 else [||]

let acc kind n =
  let n = max n 0 in
  let ext = extremum kind in
  { kind; cap = n;
    items = ints_if (counts_items kind) n;
    atoms = ints_if (sums kind) n;
    dbl = floats_if (sums kind) n;
    nonint = ints_if (sums_ints kind) n;
    int_sum = ints_if (sums_ints kind) n;
    best_tag = Bytes.make (if ext then n else 0) none;
    best_int = ints_if ext n;
    best_num = floats_if ext n;
    best_other = [||];
    errors = [||] }

let reserve a n =
  if n > a.cap then begin
    let kind = a.kind and ext = extremum a.kind in
    a.items <- regrow a.items (ints_if (counts_items kind) n);
    a.atoms <- regrow a.atoms (ints_if (sums kind) n);
    a.dbl <- regrow a.dbl (floats_if (sums kind) n);
    a.nonint <- regrow a.nonint (ints_if (sums_ints kind) n);
    a.int_sum <- regrow a.int_sum (ints_if (sums_ints kind) n);
    if ext then begin
      let tags = Bytes.make n none in
      Bytes.blit a.best_tag 0 tags 0 a.cap;
      a.best_tag <- tags;
      a.best_int <- regrow a.best_int (Array.make n 0);
      a.best_num <- regrow a.best_num (Array.make n 0.0)
    end;
    if Array.length a.best_other > 0 then
      a.best_other <- regrow a.best_other (Array.make n other_dummy);
    if Array.length a.errors > 0 then
      a.errors <- regrow a.errors (Array.make n No_error);
    a.cap <- n
  end

let failed a g = Array.length a.errors > 0 && a.errors.(g) != No_error

let fail a g e =
  if Array.length a.errors = 0 then a.errors <- Array.make a.cap No_error;
  if a.errors.(g) == No_error then a.errors.(g) <- e

(* the running extremum of slot [g] as an atom ([g] has one) *)
let best_atom a g =
  let tag = Bytes.get a.best_tag g in
  if tag = best_int_tag then Atomic.Integer a.best_int.(g)
  else if tag = best_dbl_tag then Atomic.Double a.best_num.(g)
  else if tag = best_dec_tag then Atomic.Decimal a.best_num.(g)
  else a.best_other.(g)

let set_best a g (x : Atomic.t) =
  match x with
  | Atomic.Integer i ->
    Bytes.set a.best_tag g best_int_tag;
    a.best_int.(g) <- i
  | Atomic.Double f ->
    Bytes.set a.best_tag g best_dbl_tag;
    a.best_num.(g) <- f
  | Atomic.Decimal f ->
    Bytes.set a.best_tag g best_dec_tag;
    a.best_num.(g) <- f
  | _ ->
    if Array.length a.best_other = 0 then
      a.best_other <- Array.make a.cap other_dummy;
    Bytes.set a.best_tag g best_other_tag;
    a.best_other.(g) <- x

(* [x] wins over the running extremum when it compares [c] to it:
   strictly, so the first of equal values stays *)
let wins a c = if a.kind = K_min then c < 0 else c > 0

(* [x] already read as fn:min/fn:max read it *)
let extremum_atom a g x =
  if not (failed a g) then
    if Bytes.get a.best_tag g = none then set_best a g x
    else
      match Atomic.compare_values x (best_atom a g) with
      | c -> if wins a c then set_best a g x
      | exception e -> fail a g e

let numeric a g fname (x : Atomic.t) =
  a.atoms.(g) <- a.atoms.(g) + 1;
  if sums_ints a.kind then begin
    match x with
    | Atomic.Integer i -> a.int_sum.(g) <- a.int_sum.(g) + i
    | _ -> a.nonint.(g) <- a.nonint.(g) + 1
  end;
  match Functions.numeric_of_atomic fname x with
  | f -> a.dbl.(g) <- a.dbl.(g) +. f
  | exception e -> fail a g e

let add a g (seq : Item.sequence) =
  match a.kind with
  | K_count | K_empty | K_exists -> a.items.(g) <- a.items.(g) + List.length seq
  | K_sum | K_sum_null ->
    if a.kind = K_sum_null then a.items.(g) <- a.items.(g) + List.length seq;
    List.iter (numeric a g "fn:sum") (Item.atomize seq)
  | K_avg -> List.iter (numeric a g "fn:avg") (Item.atomize seq)
  | K_min | K_max ->
    if not (failed a g) then
      List.iter
        (fun x -> extremum_atom a g (Functions.untype_extremum x))
        (Item.atomize seq)

let add_const a ~slots n seq =
  match a.kind with
  | K_count | K_empty | K_exists ->
    let m = List.length seq and items = a.items in
    for k = 0 to n - 1 do
      let g = Array.unsafe_get slots k in
      items.(g) <- items.(g) + m
    done
  | K_sum | K_sum_null | K_avg | K_min | K_max ->
    for k = 0 to n - 1 do
      add a (Array.unsafe_get slots k) seq
    done

(* The column loops: one per kind family, each row an array read and
   an add unless its tag is [slow]. *)

let count_cells a c ~slots ~rows n =
  let items = a.items and tags = c.tags in
  for k = 0 to n - 1 do
    let r = Array.unsafe_get rows k in
    let tag = Bytes.get tags r in
    if tag = slow then add a (Array.unsafe_get slots k) c.seqs.(r)
    else if tag <> no_atoms then begin
      let g = Array.unsafe_get slots k in
      items.(g) <- items.(g) + 1
    end
  done

let sum_cells a c ~slots ~rows n =
  let items = a.items and atoms = a.atoms and dbl = a.dbl in
  let nonint = a.nonint and int_sum = a.int_sum in
  let with_items = counts_items a.kind and with_ints = sums_ints a.kind in
  let tags = c.tags and ints = c.ints and nums = c.nums in
  for k = 0 to n - 1 do
    let r = Array.unsafe_get rows k in
    let tag = Bytes.get tags r in
    if tag = slow then add a (Array.unsafe_get slots k) c.seqs.(r)
    else if tag <> no_atoms then begin
      let g = Array.unsafe_get slots k in
      if with_items then items.(g) <- items.(g) + 1;
      atoms.(g) <- atoms.(g) + 1;
      if tag = int_atom then begin
        let i = ints.(r) in
        if with_ints then int_sum.(g) <- int_sum.(g) + i;
        dbl.(g) <- dbl.(g) +. float_of_int i
      end
      else begin
        if with_ints then nonint.(g) <- nonint.(g) + 1;
        dbl.(g) <- dbl.(g) +. nums.(r)
      end
    end
  done

(* One clean number against the running extremum of slot [g], compared
   as [Atomic.compare_values] compares them: integers as integers, any
   other numeric pair by [Float.compare] of the doubles. *)
let extremum_int a g i =
  let tag = Bytes.get a.best_tag g in
  if tag = none then set_best a g (Atomic.Integer i)
  else if tag = best_int_tag then begin
    if wins a (compare i a.best_int.(g)) then a.best_int.(g) <- i
  end
  else if tag = best_other_tag then extremum_atom a g (Atomic.Integer i)
  else if wins a (Float.compare (float_of_int i) a.best_num.(g)) then begin
    Bytes.set a.best_tag g best_int_tag;
    a.best_int.(g) <- i
  end

(* [nums.(r)] is read in place: a float passed as an argument would be
   boxed *)
let extremum_num a g ntag (nums : float array) r =
  let tag = Bytes.get a.best_tag g in
  if tag = best_other_tag then
    extremum_atom a g
      (if ntag = best_dec_tag then Atomic.Decimal nums.(r)
       else Atomic.Double nums.(r))
  else if
    tag = none
    || wins a
         (if tag = best_int_tag then
            Float.compare nums.(r) (float_of_int a.best_int.(g))
          else Float.compare nums.(r) a.best_num.(g))
  then begin
    Bytes.set a.best_tag g ntag;
    a.best_num.(g) <- nums.(r)
  end

let extremum_cells a c ~slots ~rows n =
  let tags = c.tags and ints = c.ints and nums = c.nums in
  for k = 0 to n - 1 do
    let r = Array.unsafe_get rows k in
    let tag = Bytes.get tags r in
    if tag = slow then add a (Array.unsafe_get slots k) c.seqs.(r)
    else if tag <> no_atoms then begin
      let g = Array.unsafe_get slots k in
      if not (failed a g) then
        if tag = int_atom then extremum_int a g ints.(r)
        else
          extremum_num a g
            (if tag = dec_atom then best_dec_tag else best_dbl_tag)
            nums r
    end
  done

let add_cells a c ~slots ~rows n =
  match a.kind with
  | K_count | K_empty | K_exists -> count_cells a c ~slots ~rows n
  | K_sum | K_sum_null | K_avg -> sum_cells a c ~slots ~rows n
  | K_min | K_max -> extremum_cells a c ~slots ~rows n

let raise_error a g = if failed a g then raise a.errors.(g)

let sum_result a g =
  if a.atoms.(g) = 0 then Item.of_int 0
  else if a.nonint.(g) = 0 then [ Item.atomic (Atomic.Integer a.int_sum.(g)) ]
  else begin
    raise_error a g;
    [ Item.atomic (Atomic.Double a.dbl.(g)) ]
  end

let result a g : Item.sequence =
  match a.kind with
  | K_count -> Item.of_int a.items.(g)
  | K_empty -> Item.of_bool (a.items.(g) = 0)
  | K_exists -> Item.of_bool (a.items.(g) > 0)
  | K_sum -> sum_result a g
  | K_sum_null -> if a.items.(g) = 0 then [] else sum_result a g
  | K_avg ->
    if a.atoms.(g) = 0 then []
    else begin
      raise_error a g;
      Item.of_double (a.dbl.(g) /. float_of_int a.atoms.(g))
    end
  | K_min | K_max ->
    raise_error a g;
    if Bytes.get a.best_tag g = none then [] else [ Item.atomic (best_atom a g) ]
