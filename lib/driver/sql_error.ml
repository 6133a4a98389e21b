(* The driver boundary's error taxonomy: every failure mode of the
   translate/execute/decode pipeline is mapped to one SQLSTATE-coded
   error, so a JDBC-style client sees rows or a typed SQLSTATE, never a
   zoo of internal exceptions. *)

module Sqlstate = Aqua_resilience.Sqlstate
module Budget = Aqua_resilience.Budget
module Breaker = Aqua_resilience.Breaker
module Failpoint = Aqua_resilience.Failpoint
module Errors = Aqua_translator.Errors

let classify : exn -> Sqlstate.t = function
  | Sqlstate.Error e -> e
  | Budget.Exceeded v -> Budget.to_sqlstate v
  | Breaker.Open_circuit { name } ->
    Sqlstate.make ~sqlstate:Sqlstate.connection_rejected
      ~condition:"circuit breaker open"
      (Printf.sprintf
         "data-service function %s is failing; circuit breaker is open" name)
  | Failpoint.Injected { site; hit } ->
    Sqlstate.make ~sqlstate:Sqlstate.connection_failure
      ~condition:"transient backend failure"
      (Printf.sprintf "injected fault at %s (hit %d)" site hit)
  | Errors.Error e ->
    (* the source position (line/column) travels with the
       driver-facing message *)
    let message =
      match e.Errors.pos with
      | Some p when p.Aqua_sql.Ast.line > 0 ->
        Printf.sprintf "at line %d, column %d: %s" p.Aqua_sql.Ast.line
          p.Aqua_sql.Ast.col e.Errors.message
      | _ -> e.Errors.message
    in
    Sqlstate.make ~sqlstate:(Errors.sqlstate e.Errors.kind)
      ~condition:(Errors.kind_to_string e.Errors.kind)
      message
  | Aqua_xqeval.Error.Dynamic_error msg | Aqua_xml.Atomic.Cast_error msg
  | Aqua_relational.Value.Type_error msg ->
    Sqlstate.make ~sqlstate:Sqlstate.external_routine_exception
      ~condition:"dynamic evaluation error" msg
  | Result_set.Decode_error msg ->
    Sqlstate.make ~sqlstate:Sqlstate.protocol_violation
      ~condition:"result decode error" msg
  | Aqua_xqeval.Compile.Compile_error msg ->
    Sqlstate.make ~sqlstate:Sqlstate.internal_error
      ~condition:"query compilation error" msg
  | Aqua_xquery.Parser.Parse_error { offset; message } ->
    Sqlstate.make ~sqlstate:Sqlstate.internal_error
      ~condition:"generated XQuery parse error"
      (Printf.sprintf "%s (offset %d)" message offset)
  | e ->
    Sqlstate.make ~sqlstate:Sqlstate.internal_error ~condition:"engine fault"
      (Printexc.to_string e)

let degradable = Aqua_dsp.Server.engine_fault

let wrap f =
  try f () with
  | Sqlstate.Error _ as e -> raise e
  | e -> raise (Sqlstate.Error (classify e))
