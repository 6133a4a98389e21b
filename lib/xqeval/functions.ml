module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Node = Aqua_xml.Node

type impl = Item.sequence list -> Item.sequence

let fail = Error.fail

let arity name n args =
  if List.length args <> n then
    fail "%s expects %d argument(s), got %d" name n (List.length args)

let atomize = Item.atomize

let opt_atomic name seq =
  match atomize seq with
  | [] -> None
  | [ a ] -> Some a
  | _ -> fail "%s expects at most one atomic value" name

let string_arg name seq =
  match opt_atomic name seq with
  | None -> ""
  | Some a -> Atomic.to_lexical a

let numeric_of_atomic name a =
  match a with
  | Atomic.Integer _ | Atomic.Decimal _ | Atomic.Double _ -> Atomic.cast_double a
  | Atomic.Untyped s -> (
    match Atomic.scan_double s with
    | Some f -> f
    | None -> fail "%s: cannot treat %S as a number" name s)
  | _ -> fail "%s: %s is not numeric" name (Atomic.type_name a)

(* F&O: untypedAtomic values are cast to xs:double in fn:min/fn:max;
   text that is not a number compares as a string *)
let untype_extremum = function
  | Atomic.Untyped s -> (
    match Atomic.scan_double s with
    | Some f -> Atomic.Double f
    | None -> Atomic.String s)
  | a -> a

(* ---------------------------------------------------------------- *)
(* Element content                                                  *)

(* XQuery content normalization: adjacent atomic values are joined
   with a single space into one text node; nodes are deep-copied
   (structural sharing is fine for an immutable tree). *)
let normalize_content (seq : Item.sequence) : Node.t list =
  let rec go acc pending = function
    | [] ->
      let acc =
        match pending with
        | [] -> acc
        | parts -> Node.Text (String.concat " " (List.rev parts)) :: acc
      in
      List.rev acc
    | Item.Atomic a :: rest -> go acc (Atomic.to_lexical a :: pending) rest
    | Item.Node n :: rest ->
      let acc =
        match pending with
        | [] -> acc
        | parts -> Node.Text (String.concat " " (List.rev parts)) :: acc
      in
      go (n :: acc) [] rest
  in
  go [] [] seq

(* The atomized value of an element constructed with content [seq]:
   always exactly one untypedAtomic, whose lexical form is the
   string-value the constructor would store — [""] for empty content,
   atomics joined with single spaces.  The single-atomic and empty
   cases skip building the text node. *)
let content_data (seq : Item.sequence) : Item.sequence =
  match seq with
  | [ Item.Atomic (Atomic.Untyped _) ] -> seq
  | _ ->
    let s =
      match seq with
      | [] -> ""
      | [ Item.Atomic a ] -> Atomic.to_lexical a
      | _ ->
        String.concat "" (List.map Node.string_value (normalize_content seq))
    in
    [ Item.Atomic (Atomic.Untyped s) ]

let content_data_name = "aqua:content-data"

let fn_content_data args =
  arity content_data_name 1 args;
  content_data (List.hd args)

(* The optimizer's mark on a closed subexpression it hoisted: its
   value is its argument's.  The compiled engine evaluates the argument
   once per run, on first demand; an interpreter evaluating an optimized
   plan simply evaluates it each time. *)
let hoisted_name = "aqua:hoisted"

let fn_hoisted args =
  arity hoisted_name 1 args;
  List.hd args

(* ---------------------------------------------------------------- *)
(* Accessors and cardinality                                        *)

let fn_data args =
  arity "fn:data" 1 args;
  List.map Item.atomic (atomize (List.hd args))

let fn_string args =
  arity "fn:string" 1 args;
  Item.of_string (Item.string_value (List.hd args))

let fn_empty args =
  arity "fn:empty" 1 args;
  Item.of_bool (List.hd args = [])

let fn_exists args =
  arity "fn:exists" 1 args;
  Item.of_bool (List.hd args <> [])

let fn_count args =
  arity "fn:count" 1 args;
  Item.of_int (List.length (List.hd args))

let fn_zero_or_one args =
  arity "fn:zero-or-one" 1 args;
  match List.hd args with
  | ([] | [ _ ]) as s -> s
  | _ -> fail "fn:zero-or-one: more than one item"

let fn_exactly_one args =
  arity "fn:exactly-one" 1 args;
  match List.hd args with
  | [ x ] -> [ x ]
  | s -> fail "fn:exactly-one: %d items" (List.length s)

(* ---------------------------------------------------------------- *)
(* Boolean                                                          *)

let fn_boolean args =
  arity "fn:boolean" 1 args;
  Item.of_bool (Item.effective_boolean_value (List.hd args))

let fn_not args =
  arity "fn:not" 1 args;
  Item.of_bool (not (Item.effective_boolean_value (List.hd args)))

let fn_true args =
  arity "fn:true" 0 args;
  Item.of_bool true

let fn_false args =
  arity "fn:false" 0 args;
  Item.of_bool false

(* ---------------------------------------------------------------- *)
(* Aggregates                                                       *)

let sum_atomics name atomics =
  (* integer-preserving when every operand is an integer *)
  let all_int =
    List.for_all (function Atomic.Integer _ -> true | _ -> false) atomics
  in
  if all_int then
    Atomic.Integer
      (List.fold_left
         (fun acc a -> match a with Atomic.Integer i -> acc + i | _ -> acc)
         0 atomics)
  else
    Atomic.Double
      (List.fold_left (fun acc a -> acc +. numeric_of_atomic name a) 0.0 atomics)

let fn_sum args =
  arity "fn:sum" 1 args;
  match atomize (List.hd args) with
  | [] -> Item.of_int 0
  | atomics -> [ Item.atomic (sum_atomics "fn:sum" atomics) ]

let fn_avg args =
  arity "fn:avg" 1 args;
  match atomize (List.hd args) with
  | [] -> []
  | atomics ->
    let n = List.length atomics in
    let total =
      List.fold_left (fun acc a -> acc +. numeric_of_atomic "fn:avg" a) 0.0
        atomics
    in
    Item.of_double (total /. float_of_int n)

let extremum name keep args =
  arity name 1 args;
  match List.map untype_extremum (atomize (List.hd args)) with
  | [] -> []
  | first :: rest ->
    [ Item.atomic
        (List.fold_left
           (fun best a -> if keep (Atomic.compare_values a best) then a else best)
           first rest) ]

let fn_min = extremum "fn:min" (fun c -> c < 0)
let fn_max = extremum "fn:max" (fun c -> c > 0)

let fn_distinct_values args =
  arity "fn:distinct-values" 1 args;
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun a ->
      let k = Atomic.hash_key a in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some (Item.atomic a)
      end)
    (atomize (List.hd args))

(* ---------------------------------------------------------------- *)
(* Strings                                                          *)

let fn_concat args =
  if List.length args < 2 then fail "fn:concat expects at least 2 arguments";
  Item.of_string
    (String.concat "" (List.map (string_arg "fn:concat") args))

let fn_string_join args =
  arity "fn:string-join" 2 args;
  match args with
  | [ seq; sep ] ->
    let sep = string_arg "fn:string-join" sep in
    Item.of_string
      (String.concat sep (List.map Atomic.to_lexical (atomize seq)))
  | _ -> assert false

let fn_string_length args =
  arity "fn:string-length" 1 args;
  Item.of_int (String.length (string_arg "fn:string-length" (List.hd args)))

let fn_upper_case args =
  arity "fn:upper-case" 1 args;
  Item.of_string
    (String.uppercase_ascii (string_arg "fn:upper-case" (List.hd args)))

let fn_lower_case args =
  arity "fn:lower-case" 1 args;
  Item.of_string
    (String.lowercase_ascii (string_arg "fn:lower-case" (List.hd args)))

let fn_substring args =
  (* fn:substring(source, start[, length]) — 1-based, F&O rounding *)
  let source, start, len =
    match args with
    | [ s; st ] -> (s, st, None)
    | [ s; st; l ] -> (s, st, Some l)
    | _ -> fail "fn:substring expects 2 or 3 arguments"
  in
  let s = string_arg "fn:substring" source in
  let start_f =
    match opt_atomic "fn:substring" start with
    | None -> fail "fn:substring: empty start"
    | Some a -> Float.round (numeric_of_atomic "fn:substring" a)
  in
  let end_f =
    match len with
    | None -> Float.of_int (String.length s) +. 1.0
    | Some l -> (
      match opt_atomic "fn:substring" l with
      | None -> fail "fn:substring: empty length"
      | Some a -> start_f +. Float.round (numeric_of_atomic "fn:substring" a))
  in
  let n = String.length s in
  let from = max 1 (int_of_float start_f) in
  let until = min (n + 1) (int_of_float end_f) in
  if until <= from then Item.of_string ""
  else Item.of_string (String.sub s (from - 1) (until - from))

let fn_contains args =
  arity "fn:contains" 2 args;
  match args with
  | [ a; b ] ->
    let hay = string_arg "fn:contains" a and needle = string_arg "fn:contains" b in
    let n = String.length needle and h = String.length hay in
    let rec go i =
      if i + n > h then false
      else if String.sub hay i n = needle then true
      else go (i + 1)
    in
    Item.of_bool (n = 0 || go 0)
  | _ -> assert false

let fn_starts_with args =
  arity "fn:starts-with" 2 args;
  match args with
  | [ a; b ] ->
    let hay = string_arg "fn:starts-with" a
    and pre = string_arg "fn:starts-with" b in
    Item.of_bool
      (String.length pre <= String.length hay
      && String.sub hay 0 (String.length pre) = pre)
  | _ -> assert false

let fn_ends_with args =
  arity "fn:ends-with" 2 args;
  match args with
  | [ a; b ] ->
    let hay = string_arg "fn:ends-with" a and suf = string_arg "fn:ends-with" b in
    let lh = String.length hay and ls = String.length suf in
    Item.of_bool (ls <= lh && String.sub hay (lh - ls) ls = suf)
  | _ -> assert false

let fn_position_of args =
  (* fn-bea:position-of, the 1-based LOCATE/POSITION helper *)
  arity "POSITION" 2 args;
  match args with
  | [ needle; hay ] ->
    let needle = string_arg "POSITION" needle
    and hay = string_arg "POSITION" hay in
    let n = String.length needle and h = String.length hay in
    if n = 0 then Item.of_int 1
    else begin
      let rec go i =
        if i + n > h then 0
        else if String.sub hay i n = needle then i + 1
        else go (i + 1)
      in
      Item.of_int (go 0)
    end
  | _ -> assert false

let trim_with name which args =
  arity name 1 args;
  let s = string_arg name (List.hd args) in
  let is_space c = c = ' ' in
  let n = String.length s in
  let start =
    if which = `Trailing then 0
    else begin
      let i = ref 0 in
      while !i < n && is_space s.[!i] do incr i done;
      !i
    end
  in
  let stop =
    if which = `Leading then n
    else begin
      let i = ref n in
      while !i > start && is_space s.[!i - 1] do decr i done;
      !i
    end
  in
  Item.of_string (String.sub s start (stop - start))

(* ---------------------------------------------------------------- *)
(* Numerics                                                         *)

let numeric_unary name f g args =
  arity name 1 args;
  match opt_atomic name (List.hd args) with
  | None -> []
  | Some (Atomic.Integer i) -> Item.of_int (f i)
  | Some a -> [ Item.atomic (Atomic.Double (g (numeric_of_atomic name a))) ]

let fn_abs = numeric_unary "fn:abs" abs Float.abs
let fn_floor = numeric_unary "fn:floor" Fun.id Float.floor
let fn_ceiling = numeric_unary "fn:ceiling" Fun.id Float.ceil

let fn_round =
  numeric_unary "fn:round" Fun.id (fun f ->
      (* round-half-up per F&O *)
      Float.floor (f +. 0.5))

let fn_number args =
  arity "fn:number" 1 args;
  match opt_atomic "fn:number" (List.hd args) with
  | None -> Item.of_double Float.nan
  | Some a -> (
    try Item.of_double (Atomic.cast_double a)
    with Atomic.Cast_error _ -> Item.of_double Float.nan)

(* ---------------------------------------------------------------- *)
(* Date/time component extraction (lenient: date or dateTime)       *)

let date_component name f args =
  arity name 1 args;
  match opt_atomic name (List.hd args) with
  | None -> []
  | Some a ->
    let d =
      match a with
      | Atomic.Date d -> d
      | Atomic.Timestamp ts -> ts.date
      | Atomic.Untyped s | Atomic.String s -> (
        try Atomic.date_of_string s
        with Atomic.Cast_error _ -> (Atomic.timestamp_of_string s).date)
      | _ -> fail "%s: expected a date, got %s" name (Atomic.type_name a)
    in
    Item.of_int (f d)

let time_component name f args =
  arity name 1 args;
  match opt_atomic name (List.hd args) with
  | None -> []
  | Some a ->
    let t =
      match a with
      | Atomic.Time t -> t
      | Atomic.Timestamp ts -> ts.time
      | Atomic.Untyped s | Atomic.String s -> (
        try Atomic.time_of_string s
        with Atomic.Cast_error _ -> (Atomic.timestamp_of_string s).time)
      | _ -> fail "%s: expected a time, got %s" name (Atomic.type_name a)
    in
    Item.of_int (f t)

let fn_subsequence args =
  (* fn:subsequence(seq, start[, length]) — 1-based *)
  let seq, start, len =
    match args with
    | [ s; st ] -> (s, st, None)
    | [ s; st; l ] -> (s, st, Some l)
    | _ -> fail "fn:subsequence expects 2 or 3 arguments"
  in
  let num name seq =
    match opt_atomic name seq with
    | None -> fail "%s: empty numeric argument" name
    | Some a -> Float.round (numeric_of_atomic name a)
  in
  let start_f = num "fn:subsequence" start in
  let end_f =
    match len with
    | None -> infinity
    | Some l -> start_f +. num "fn:subsequence" l
  in
  List.filteri
    (fun i _ ->
      let p = float_of_int (i + 1) in
      p >= start_f && p < end_f)
    seq

(* SQL LIKE matching ('%' = any run, '_' = any char, with an optional
   escape character), exposed to generated queries as fn-bea:like. *)
let like_match ?escape ~pattern s =
  let n = String.length pattern in
  let explode i =
    (* decode next pattern element: `Any | `One | `Lit c *)
    match pattern.[i] with
    | c when Some c = escape ->
      if i + 1 >= n then fail "LIKE pattern ends with escape character"
      else (`Lit pattern.[i + 1], i + 2)
    | '%' -> (`Any, i + 1)
    | '_' -> (`One, i + 1)
    | c -> (`Lit c, i + 1)
  in
  let sl = String.length s in
  (* memoized recursive matcher *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi >= n then si >= sl
        else begin
          let elem, pi' = explode pi in
          match elem with
          | `Any -> go pi' si || (si < sl && go pi (si + 1))
          | `One -> si < sl && go pi' (si + 1)
          | `Lit c -> si < sl && s.[si] = c && go pi' (si + 1)
        end
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0

let fn_bea_like args =
  let value, pattern, escape =
    match args with
    | [ v; p ] -> (v, p, None)
    | [ v; p; e ] -> (v, p, Some e)
    | _ -> fail "fn-bea:like expects 2 or 3 arguments"
  in
  match (value, opt_atomic "fn-bea:like" pattern) with
  | [], _ | _, None -> Item.of_bool false
  | v, Some pat_atom ->
    let s = string_arg "fn-bea:like" v in
    let pattern = Atomic.to_lexical pat_atom in
    let escape =
      match escape with
      | None -> None
      | Some e -> (
        match string_arg "fn-bea:like" e with
        | "" -> None
        | es when String.length es = 1 -> Some es.[0]
        | es -> fail "fn-bea:like: escape must be one character, got %S" es)
    in
    Item.of_bool (like_match ?escape ~pattern s)

(* ---------------------------------------------------------------- *)
(* fn-bea: extensions (paper section 4)                             *)

let fn_bea_if_empty args =
  arity "fn-bea:if-empty" 2 args;
  match args with
  | [ v; dflt ] -> if v = [] then dflt else v
  | _ -> assert false

let needs_escape c =
  match c with
  | '&' | '<' | '>' -> true
  | '\t' | '\n' | '\r' -> false
  | c -> Char.code c < 0x20

(* Runs of bytes that need no escaping are appended whole. *)
let xml_escape_into buf s =
  let n = String.length s in
  let from = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !from (i - !from);
      (match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c ->
        (* a C0 control: two digits at most *)
        let k = Char.code c in
        Buffer.add_string buf "&#";
        if k >= 10 then Buffer.add_char buf (Char.unsafe_chr (48 + (k / 10)));
        Buffer.add_char buf (Char.unsafe_chr (48 + (k mod 10)));
        Buffer.add_char buf ';');
      from := i + 1
    end
  done;
  Buffer.add_substring buf s !from (n - !from)

let xml_escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    xml_escape_into buf s;
    Buffer.contents buf
  end

let fn_bea_xml_escape args =
  arity "fn-bea:xml-escape" 1 args;
  match List.hd args with
  | [] -> []
  | seq -> Item.of_string (xml_escape (string_arg "fn-bea:xml-escape" seq))

let fn_bea_serialize_atomic args =
  arity "fn-bea:serialize-atomic" 1 args;
  match opt_atomic "fn-bea:serialize-atomic" (List.hd args) with
  | None -> []
  | Some a -> Item.of_string (Atomic.to_lexical a)

(* ---------------------------------------------------------------- *)
(* xs: constructor functions (casts)                                *)

let cast name conv args =
  arity name 1 args;
  match opt_atomic name (List.hd args) with
  | None -> []
  | Some a -> (
    try [ Item.atomic (conv a) ] with
    | Atomic.Cast_error m -> fail "%s: %s" name m)

let registry : (string, impl) Hashtbl.t = Hashtbl.create 97

let register name impl = Hashtbl.replace registry name impl

let () =
  register "fn:data" fn_data;
  register content_data_name fn_content_data;
  register hoisted_name fn_hoisted;
  register "fn:string" fn_string;
  register "fn:empty" fn_empty;
  register "fn:exists" fn_exists;
  register "fn:count" fn_count;
  register "fn:zero-or-one" fn_zero_or_one;
  register "fn:exactly-one" fn_exactly_one;
  register "fn:boolean" fn_boolean;
  register "fn:not" fn_not;
  register "fn:true" fn_true;
  register "fn:false" fn_false;
  register "fn:sum" fn_sum;
  register "fn:avg" fn_avg;
  register "fn:min" fn_min;
  register "fn:max" fn_max;
  register "fn:distinct-values" fn_distinct_values;
  register "fn:concat" fn_concat;
  register "fn:string-join" fn_string_join;
  register "fn:string-length" fn_string_length;
  register "fn:upper-case" fn_upper_case;
  register "fn:lower-case" fn_lower_case;
  register "fn:substring" fn_substring;
  register "fn:contains" fn_contains;
  register "fn:starts-with" fn_starts_with;
  register "fn:ends-with" fn_ends_with;
  register "fn:abs" fn_abs;
  register "fn:floor" fn_floor;
  register "fn:ceiling" fn_ceiling;
  register "fn:round" fn_round;
  register "fn:number" fn_number;
  register "fn:year-from-date" (date_component "fn:year-from-date" (fun d -> d.year));
  register "fn:month-from-date" (date_component "fn:month-from-date" (fun d -> d.month));
  register "fn:day-from-date" (date_component "fn:day-from-date" (fun d -> d.day));
  register "fn:hours-from-time" (time_component "fn:hours-from-time" (fun t -> t.hour));
  register "fn:minutes-from-time" (time_component "fn:minutes-from-time" (fun t -> t.minute));
  register "fn:seconds-from-time" (time_component "fn:seconds-from-time" (fun t -> t.second));
  register "fn:subsequence" fn_subsequence;
  register "fn-bea:like" fn_bea_like;
  register "fn-bea:if-empty" fn_bea_if_empty;
  register "fn-bea:xml-escape" fn_bea_xml_escape;
  register "fn-bea:serialize-atomic" fn_bea_serialize_atomic;
  register "fn-bea:position" fn_position_of;
  register "fn-bea:trim" (trim_with "fn-bea:trim" `Both);
  register "fn-bea:trim-left" (trim_with "fn-bea:trim-left" `Leading);
  register "fn-bea:trim-right" (trim_with "fn-bea:trim-right" `Trailing);
  List.iter (fun (name, conv) -> register name (cast name conv)) Atomic.constructors

let lookup name = Hashtbl.find_opt registry name

let names () =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])
