module A = Aqua_sql.Ast

type t = {
  statement : A.statement;
  xquery : Aqua_xquery.Ast.query;
  columns : Outcol.t list;
}

module Telemetry = Aqua_core.Telemetry

let parse_stage parse sql =
  Telemetry.with_span "translate.parse" @@ fun () ->
  try parse sql
  with Aqua_sql.Parser.Parse_error { pos; message } ->
    raise (Errors.Error { Errors.kind = Errors.Syntax; message; pos = Some pos })

let semantic_stage env statement =
  Telemetry.with_span "translate.semantic" (fun () ->
      Semantic.resolve env statement)

let translate_statement ?style env (statement : A.statement) : t =
  (* stage two: semantic validation against metadata *)
  let resolved = semantic_stage env statement in
  (* stage three: XQuery generation *)
  let output =
    Telemetry.with_span "translate.generate" (fun () ->
        Generate.generate ?style resolved)
  in
  {
    statement;
    xquery = output.Generate.query;
    columns = output.Generate.columns;
  }

let translate ?style env sql : t =
  Telemetry.incr Telemetry.c_translations;
  Telemetry.with_span "translate" @@ fun () ->
  translate_statement ?style env (parse_stage Aqua_sql.Parser.parse sql)

type lifted = {
  plan : t;
  literals : A.literal array;
  externals : Generate.lifted list;
  pinned : int list;
  params : int;
}

let translate_lifted env tokens =
  Telemetry.incr Telemetry.c_translations;
  Telemetry.with_span "translate" @@ fun () ->
  let statement, numbering = parse_stage Aqua_sql.Parser.parse_tokens tokens in
  let resolved = semantic_stage env statement in
  let output, externals =
    Telemetry.with_span "translate.generate" (fun () ->
        Generate.generate_lifted ~literals:numbering.Aqua_sql.Parser.values
          resolved)
  in
  let values = numbering.Aqua_sql.Parser.values in
  let lifted = Array.make (Array.length values) false in
  List.iter (fun (l : Generate.lifted) -> lifted.(l.ordinal) <- true) externals;
  {
    plan =
      { statement; xquery = output.Generate.query;
        columns = output.Generate.columns };
    literals = values;
    externals;
    pinned =
      List.filter (fun k -> not lifted.(k)) (List.init (Array.length values) Fun.id);
    params = numbering.Aqua_sql.Parser.params;
  }

let reusable l values =
  Array.length values = Array.length l.literals
  && List.for_all (fun k -> values.(k) = l.literals.(k)) l.pinned

let instantiate l values = Generate.instantiate l.externals values l.plan.xquery
let bindings l values = Generate.bindings l.externals values

let translate_result ?style env sql =
  match translate ?style env sql with
  | t -> Ok t
  | exception Errors.Error e -> Error e

let for_text_transport t = Wrapper.wrap t.xquery t.columns
let to_string t = Aqua_xquery.Pretty.query_to_string t.xquery
