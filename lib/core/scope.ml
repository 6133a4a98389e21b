(* Name scopes for column resolution.

   Each query spec opens a scope holding one "view" per FROM item
   (paper: resultset node).  A view exposes columns that can be
   referenced bare or qualified; resolution walks outward through
   parent scopes, which is how correlated subqueries see their outer
   query's columns.  Labels and aliases are case-folded once, when a
   view is made, so resolving a reference folds only the reference. *)

module Sql_type = Aqua_relational.Sql_type

type vcol = {
  label : string;        (* the SQL-visible column name *)
  qualifier : string option;
      (* alias the column may be qualified with; for a join view the
         per-side aliases survive even though the view itself has no
         alias of its own *)
  element : string;      (* child element name in this view's rows *)
  ty : Sql_type.t;
  nullable : bool;
  key : string;  (* [label], case-folded *)
  qualifier_key : string option;  (* [qualifier], case-folded *)
}

type view = {
  id : int;
  alias : string option;
  alias_key : string option;  (* [alias], case-folded *)
  cols : vcol list;  (* in the order of the view's rows *)
  lookup : vcol list;
      (* the same columns in SQL order, which resolution reports
         ambiguity in; differs from [cols] only under a RIGHT OUTER JOIN,
         whose record puts the right side first *)
}

let fold = String.uppercase_ascii

let col ?qualifier ~element ~ty ~nullable label =
  { label; qualifier; element; ty; nullable; key = fold label;
    qualifier_key = Option.map fold qualifier }

let next_id = Atomic.make 0

let view ?alias ?lookup cols =
  { id = Atomic.fetch_and_add next_id 1; alias;
    alias_key = Option.map fold alias; cols;
    lookup = Option.value lookup ~default:cols }

(* The columns as a join record carries them: qualified by the view's
   alias, element [T.C] (paper Example 10), nullable on a null-extended
   side. *)
let qualified_cols ~nullable v =
  List.map
    (fun c ->
      let qualifier =
        match c.qualifier with Some _ as q -> q | None -> v.alias
      in
      let element =
        match qualifier with Some q -> q ^ "." ^ c.label | None -> c.label
      in
      let qualifier_key =
        match c.qualifier_key with Some _ as k -> k | None -> v.alias_key
      in
      { c with qualifier; element; qualifier_key; nullable = c.nullable || nullable })
    v.cols

type t = {
  views : view list;
  parent : t option;
}

let root = { views = []; parent = None }
let push parent views = { views; parent = Some parent }

type resolution = {
  res_view : view;
  res_col : vcol;
  res_depth : int;  (* 0 = current scope, >0 = correlated *)
}

type error =
  | Not_found_in_scope
  | Ambiguous of string list  (* descriptions of the candidates *)

let describe view col =
  match (view.alias, col.qualifier) with
  | Some a, _ -> a ^ "." ^ col.label
  | None, Some q -> q ^ "." ^ col.label
  | None, None -> col.label

let qualifies view col q =
  match view.alias_key with
  | Some a -> String.equal a q
  | None -> (
    match col.qualifier_key with Some cq -> String.equal cq q | None -> false)

(* All matches for a (qualifier, name) reference within one scope level,
   in FROM order.  A qualified reference skips every view whose alias
   differs without looking at its columns. *)
let matches_in views qualifier key =
  List.fold_left
    (fun acc view ->
      match (qualifier, view.alias_key) with
      | Some q, Some a when not (String.equal a q) -> acc
      | _ ->
        List.fold_left
          (fun acc col ->
            if
              String.equal col.key key
              && match qualifier with None -> true | Some q -> qualifies view col q
            then (view, col) :: acc
            else acc)
          acc view.lookup)
    [] views
  |> List.rev

let resolve scope ?qualifier name =
  let qualifier = Option.map fold qualifier and key = fold name in
  let rec go scope depth =
    match matches_in scope.views qualifier key with
    | [ (res_view, res_col) ] -> Ok { res_view; res_col; res_depth = depth }
    | [] -> (
      match scope.parent with
      | Some p -> go p (depth + 1)
      | None -> Error Not_found_in_scope)
    | many ->
      Error (Ambiguous (List.map (fun (v, c) -> describe v c) many))
  in
  go scope 0

(* Wildcard expansion: all columns of the scope's own views, in FROM
   order ([SELECT *]), or of the view(s) matching an alias
   ([SELECT T.*]); each view's columns in SQL order, which differs from
   its record order under a RIGHT OUTER JOIN. *)
let star_columns scope = List.concat_map (fun v -> List.map (fun c -> (v, c)) v.lookup) scope.views

let qualified_star_columns scope alias =
  let q = fold alias in
  List.concat_map
    (fun v -> List.filter_map (fun c -> if qualifies v c q then Some (v, c) else None) v.lookup)
    scope.views
