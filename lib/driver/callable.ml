module Value = Aqua_relational.Value
module Schema = Aqua_relational.Schema
module Metadata = Aqua_dsp.Metadata
module Server = Aqua_dsp.Server
module Errors = Aqua_translator.Errors
module Outcol = Aqua_translator.Outcol
module Lexer = Aqua_sql.Lexer

type t = {
  conn : Connection.t;
  meta : Metadata.table;
  params : Aqua_xml.Item.sequence option array;
}

let fail ?pos fmt = Errors.raise_error ?pos Errors.Syntax fmt

(* {call schema.name(?, ?)} — braces optional, case-insensitive CALL *)
let parse_call_syntax src =
  let toks = Lexer.tokens src in
  Option.iter
    (fun (pos, message) -> fail ~pos "%s" message)
    (Lexer.first_error toks);
  let toks = Array.of_list toks in
  let idx = ref 0 in
  let peek () = toks.(!idx).Lexer.token in
  let advance () = if !idx < Array.length toks - 1 then incr idx in
  let eat_punct p =
    match peek () with
    | Lexer.Punct q when q = p ->
      advance ();
      true
    | _ -> false
  in
  let expect_punct p =
    if not (eat_punct p) then fail "expected '%s' in call syntax" p
  in
  (match peek () with
  | Lexer.Ident s when String.uppercase_ascii s = "CALL" -> advance ()
  | _ -> fail "expected CALL");
  let ident () =
    match peek () with
    | Lexer.Ident s | Lexer.Quoted_ident s ->
      advance ();
      s
    | t -> fail "expected a procedure name, found %s" (Lexer.token_to_string t)
  in
  let first = ident () in
  let schema, name =
    if eat_punct "." then (Some first, ident ()) else (None, first)
  in
  expect_punct "(";
  let nparams = ref 0 in
  if not (eat_punct ")") then begin
    let rec go () =
      expect_punct "?";
      incr nparams;
      if eat_punct "," then go () else expect_punct ")"
    in
    go ()
  end;
  (match peek () with
  | Lexer.Eof -> ()
  | t -> fail "unexpected %s after call" (Lexer.token_to_string t));
  (schema, name, !nparams)

(* The braces of {call …} become blanks, so positions stay the
   caller's. *)
let strip_braces src =
  let s = String.trim src in
  if String.length s >= 2 && s.[0] = '{' && s.[String.length s - 1] = '}' then
    let i = String.index src '{' and j = String.rindex src '}' in
    String.mapi (fun k c -> if k = i || k = j then ' ' else c) src
  else src

let prepare conn src =
  let schema, name, nparams = parse_call_syntax (strip_braces src) in
  let app = Connection.application conn in
  let candidates =
    List.filter
      (fun ((m : Metadata.table), (params : Aqua_dsp.Artifact.parameter list)) ->
        ignore params;
        String.uppercase_ascii m.Metadata.table = String.uppercase_ascii name
        &&
        match schema with
        | None -> true
        | Some s ->
          String.uppercase_ascii m.Metadata.schema = String.uppercase_ascii s)
      (Metadata.list_procedures app)
  in
  match candidates with
  | [] ->
    Errors.raise_error Errors.Unknown_table "no stored procedure named %s" name
  | _ :: _ :: _ ->
    Errors.raise_error Errors.Unknown_table
      "procedure name %s is ambiguous; qualify it with its schema" name
  | [ (meta, params) ] ->
    if List.length params <> nparams then
      Errors.raise_error Errors.Cardinality
        "procedure %s takes %d parameter(s), call provides %d" name
        (List.length params) nparams;
    { conn; meta; params = Array.make nparams None }

let parameter_count t = Array.length t.params
let procedure t = t.meta

let set_value t i v =
  if i < 1 || i > Array.length t.params then
    invalid_arg (Printf.sprintf "parameter index %d out of range" i);
  t.params.(i - 1) <- Some (Connection.item_of_value v)

let set_int t i v = set_value t i (Value.Int v)
let set_string t i v = set_value t i (Value.Str v)
let set_float t i v = set_value t i (Value.Num v)
let set_null t i = set_value t i Value.Null

let execute_query t =
  let args =
    Array.to_list
      (Array.mapi
         (fun i p ->
           match p with
           | Some seq -> seq
           | None ->
             invalid_arg (Printf.sprintf "parameter %d is not bound" (i + 1)))
         t.params)
  in
  (* metadata schema is "path/dsname" (Figure 2) *)
  let path, ds_name =
    match String.rindex_opt t.meta.Metadata.schema '/' with
    | Some i ->
      ( String.sub t.meta.Metadata.schema 0 i,
        String.sub t.meta.Metadata.schema (i + 1)
          (String.length t.meta.Metadata.schema - i - 1) )
    | None -> (t.meta.Metadata.schema, t.meta.Metadata.schema)
  in
  let items =
    Server.call_function
      (Connection.server t.conn)
      ~path ~name:ds_name ~fn:t.meta.Metadata.table args
  in
  let cols =
    List.map
      (fun (c : Schema.column) ->
        Outcol.make ~label:c.Schema.name ~element:c.Schema.name ~ty:c.Schema.ty
          ~nullable:c.Schema.nullable)
      t.meta.Metadata.columns
  in
  Result_set.of_xml_sequence cols items
