(* Abstract syntax of the XQuery fragment the translator emits and the
   interpreter executes: FLWOR expressions (with BEA's group-by
   extension), path expressions over flat element trees, node
   constructors, conditionals, quantifiers and function calls.

   Variable names are stored without the leading '$'. *)

module Atomic = Aqua_xml.Atomic

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Idiv | Mod

type binop =
  | B_and
  | B_or
  | B_general of cmp  (* existential comparison: =, !=, <, ... *)
  | B_value of cmp    (* value comparison: eq, ne, lt, ... *)
  | B_arith of arith

type empty_order = Empty_least | Empty_greatest

type order_spec = {
  key : expr;
  descending : bool;
  empty : empty_order;
}

and clause =
  | For of { var : string; source : expr }
  | Let of { var : string; value : expr }
  | Where of expr
  (* BEA XQuery group-by extension (paper section 3.5):
     [group $grouped as $partition by K1 as $k1, K2 as $k2].
     After grouping only the key variables and the partition variable
     remain bound; the partition holds the grouped variable's items. *)
  | Group of {
      grouped : string;
      partition : string;
      keys : (expr * string) list;
    }
  | Order_by of order_spec list
  (* Physical operator introduced by the optimizer (never produced by
     the translator or parser): a hash equi-join.  Logically equivalent
     to [For {var; source}] followed by [Where (Binop (cmp, probe_key,
     build_key))] where [cmp] is [B_value Eq] when [value_cmp] and
     [B_general Eq] otherwise.  [source] and [probe_key] are evaluated
     in the incoming environment; [build_key] additionally sees [var].
     The build side hashes [source]'s items by [build_key]; each
     incoming tuple probes with [probe_key].  Matches are emitted in
     [source] order, preserving nested-loop tuple order. *)
  | Hash_join of {
      var : string;
      source : expr;
      build_key : expr;
      probe_key : expr;
      value_cmp : bool;
    }

and flwor = {
  clauses : clause list;
  return : expr;
}

and step = {
  name : string;  (** child element name; ["*"] matches any element *)
  predicates : expr list;
}

and expr =
  | Literal of Atomic.t
  | Var of string
  | Context_item
    (** "." — the item a predicate is being evaluated against; a path
        rooted at [Context_item] prints as a relative path *)
  | Seq of expr list  (** [Seq []] is the empty sequence [()] *)
  | Flwor of flwor
  | Path of expr * step list
  | Call of string * expr list  (** e.g. [Call ("fn:data", [...])] *)
  | Elem of { name : string; content : expr list }
  | Text of string  (** literal text inside a constructor *)
  | If of expr * expr * expr
  | Binop of binop * expr * expr
  | Neg of expr
  | Quantified of {
      every : bool;  (** [false] = some, [true] = every *)
      bindings : (string * expr) list;
      satisfies : expr;
    }
  | Filter of expr * expr  (** predicate application [e1\[e2\]] *)

type schema_import = {
  prefix : string;
  namespace : string;
  location : string;
}

type prolog = { imports : schema_import list }

type query = {
  prolog : prolog;
  body : expr;
}

(* Convenience constructors used heavily by the generator. *)
let call name args = Call (name, args)
let var v = Var v
let str s = Literal (Atomic.String s)
let int i = Literal (Atomic.Integer i)
let path1 e name = Path (e, [ { name; predicates = [] } ])
let elem name content = Elem { name; content }
let empty_seq = Seq []

(* [e] with every read of a variable [f] maps replaced.  The translator
   uses it to put literal values back into a lifted plan, whose
   [$litK] externals no clause rebinds, so scoping is not tracked. *)
let rec substitute f e =
  let sub = substitute f in
  match e with
  | Var v -> ( match f v with Some e' -> e' | None -> e)
  | Literal _ | Text _ | Context_item -> e
  | Seq es -> Seq (List.map sub es)
  | Flwor { clauses; return } ->
    let clause = function
      | For { var; source } -> For { var; source = sub source }
      | Let { var; value } -> Let { var; value = sub value }
      | Where c -> Where (sub c)
      | Group g ->
        Group { g with keys = List.map (fun (k, v) -> (sub k, v)) g.keys }
      | Order_by specs ->
        Order_by (List.map (fun s -> { s with key = sub s.key }) specs)
      | Hash_join h ->
        Hash_join
          { h with
            source = sub h.source;
            build_key = sub h.build_key;
            probe_key = sub h.probe_key }
    in
    Flwor { clauses = List.map clause clauses; return = sub return }
  | Path (b, steps) ->
    Path
      ( sub b,
        List.map
          (fun s -> { s with predicates = List.map sub s.predicates })
          steps )
  | Call (n, args) -> Call (n, List.map sub args)
  | Elem { name; content } -> Elem { name; content = List.map sub content }
  | If (c, t, e) -> If (sub c, sub t, sub e)
  | Binop (op, a, b) -> Binop (op, sub a, sub b)
  | Neg a -> Neg (sub a)
  | Quantified q ->
    Quantified
      { q with
        bindings = List.map (fun (v, b) -> (v, sub b)) q.bindings;
        satisfies = sub q.satisfies }
  | Filter (a, p) -> Filter (sub a, sub p)
