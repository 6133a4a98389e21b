type token =
  | Ident of string
  | Quoted_ident of string
  | String_lit of string
  | Int_lit of int
  | Num_lit of float * string
  | Punct of string
  | Eof

type located = {
  token : token;
  pos : Ast.pos;
}

exception Lex_error of { pos : Ast.pos; message : string }

let token_to_string = function
  | Ident s -> s
  | Quoted_ident s -> Printf.sprintf "%S" s
  | String_lit s -> Printf.sprintf "'%s'" s
  | Int_lit i -> string_of_int i
  | Num_lit (_, s) -> s
  | Punct s -> s
  | Eof -> "<end of input>"

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let current_pos st : Ast.pos = { line = st.line; col = st.pos - st.bol + 1 }

let error st fmt =
  let pos = current_pos st in
  Format.kasprintf (fun message -> raise (Lex_error { pos; message })) fmt

let peek st =
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_ident_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let is_digit c = match c with '0' .. '9' -> true | _ -> false

let read_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let read_number st =
  let start = st.pos in
  let seen_dot = ref false in
  let seen_exp = ref false in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some c when is_digit c -> advance st
    | Some '.' when not !seen_dot && not !seen_exp ->
      seen_dot := true;
      advance st
    | Some ('e' | 'E') when not !seen_exp -> (
      (* exponent must be followed by optional sign + digit *)
      match peek2 st with
      | Some c when is_digit c ->
        seen_exp := true;
        advance st;
        advance st
      | Some ('+' | '-') ->
        seen_exp := true;
        advance st;
        advance st
      | _ -> continue := false)
    | _ -> continue := false
  done;
  let text = String.sub st.src start (st.pos - start) in
  if (not !seen_dot) && not !seen_exp then
    match int_of_string_opt text with
    | Some i -> Int_lit i
    | None -> Num_lit (float_of_string text, text)
  else Num_lit (float_of_string text, text)

let read_string st =
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '\'' -> (
      match peek2 st with
      | Some '\'' ->
        Buffer.add_char buf '\'';
        advance st;
        advance st;
        go ()
      | _ -> advance st)
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  String_lit (Buffer.contents buf)

let read_quoted_ident st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated quoted identifier"
    | Some '"' -> (
      match peek2 st with
      | Some '"' ->
        Buffer.add_char buf '"';
        advance st;
        advance st;
        go ()
      | _ -> advance st)
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Quoted_ident (Buffer.contents buf)

let skip_line_comment st =
  while (match peek st with Some c -> c <> '\n' | None -> false) do
    advance st
  done

let skip_block_comment st =
  advance st;
  advance st;
  let rec go () =
    match (peek st, peek2 st) with
    | Some '*', Some '/' ->
      advance st;
      advance st
    | None, _ -> error st "unterminated block comment"
    | _ ->
      advance st;
      go ()
  in
  go ()

let two_char_punct = [ "<="; ">="; "<>"; "!="; "||" ]

let tokens src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let toks = ref [] in
  let emit pos token = toks := { token; pos } :: !toks in
  let rec loop () =
    match peek st with
    | None -> emit (current_pos st) Eof
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      loop ()
    | Some '-' when peek2 st = Some '-' ->
      skip_line_comment st;
      loop ()
    | Some '/' when peek2 st = Some '*' ->
      skip_block_comment st;
      loop ()
    | Some '\'' ->
      let pos = current_pos st in
      emit pos (read_string st);
      loop ()
    | Some '"' ->
      let pos = current_pos st in
      emit pos (read_quoted_ident st);
      loop ()
    | Some c when is_digit c ->
      let pos = current_pos st in
      emit pos (read_number st);
      loop ()
    | Some '.' when (match peek2 st with Some d -> is_digit d | None -> false)
      ->
      let pos = current_pos st in
      emit pos (read_number st);
      loop ()
    | Some c when is_ident_start c ->
      let pos = current_pos st in
      emit pos (Ident (read_ident st));
      loop ()
    | Some c -> (
      let pos = current_pos st in
      let two =
        if st.pos + 1 < String.length src then String.sub src st.pos 2 else ""
      in
      if List.mem two two_char_punct then begin
        advance st;
        advance st;
        emit pos (Punct two);
        loop ()
      end
      else
        match c with
        | '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | '<' | '>' | '='
        | '?' | ';' ->
          advance st;
          emit pos (Punct (String.make 1 c));
          loop ()
        | _ -> error st "unexpected character %C" c)
  in
  loop ();
  List.rev !toks

let tokenize src = Array.of_list (tokens src)
