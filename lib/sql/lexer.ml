type token =
  | Ident of string
  | Quoted_ident of string
  | String_lit of string
  | Int_lit of int
  | Num_lit of float * string
  | Punct of string
  | Error of string
  | Eof

type located = {
  token : token;
  pos : Ast.pos;
  offset : int;
  len : int;
  literal : Ast.literal option;
}

let token_to_string = function
  | Ident s -> s
  | Quoted_ident s -> Printf.sprintf "%S" s
  | String_lit s -> Printf.sprintf "'%s'" s
  | Int_lit i -> string_of_int i
  | Num_lit (_, s) -> s
  | Punct s -> s
  | Error message -> message
  | Eof -> "<end of input>"

let is_ident_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let is_digit c = match c with '0' .. '9' -> true | _ -> false

let punct1 = function
  | '(' -> Some "(" | ')' -> Some ")" | ',' -> Some "," | '.' -> Some "."
  | '*' -> Some "*" | '+' -> Some "+" | '-' -> Some "-" | '/' -> Some "/"
  | '<' -> Some "<" | '>' -> Some ">" | '=' -> Some "=" | '?' -> Some "?"
  | ';' -> Some ";"
  | _ -> None

let punct2 a b =
  match (a, b) with
  | '<', '=' -> Some "<=" | '>', '=' -> Some ">=" | '<', '>' -> Some "<>"
  | '!', '=' -> Some "!=" | '|', '|' -> Some "||"
  | _ -> None

let tokens src =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let pos_at i : Ast.pos = { line = !line; col = i - !bol + 1 } in
  let toks = ref [] in
  let emit ?literal ~start ~stop pos token =
    toks := { token; pos; offset = start; len = stop - start; literal } :: !toks
  in
  (* a zero-width error token at [i] *)
  let error i message = emit ~start:i ~stop:i (pos_at i) (Error message) in
  let newline_at i = if src.[i] = '\n' then begin incr line; bol := i + 1 end in
  let digit_at i = i < n && is_digit src.[i] in
  let sign_at i = i < n && (src.[i] = '+' || src.[i] = '-') in
  (* the body of a [q]-delimited token from [i], a doubled [q] standing
     for one: the body, where the token stops, and whether it closed *)
  let delimited i q =
    let escaped = ref false in
    let rec close j =
      if j >= n then (j, false)
      else if src.[j] <> q then begin
        newline_at j;
        close (j + 1)
      end
      else if j + 1 < n && src.[j + 1] = q then begin
        escaped := true;
        close (j + 2)
      end
      else (j + 1, true)
    in
    let stop, closed = close (i + 1) in
    let body = String.sub src (i + 1) (stop - i - if closed then 2 else 1) in
    let body =
      if !escaped then
        (* a doubled [q] splits into an empty piece between two others *)
        String.concat (String.make 1 q)
          (List.filteri (fun k _ -> k mod 2 = 0) (String.split_on_char q body))
      else body
    in
    (body, stop, closed)
  in
  (* digits [. digits] [eE [+-] digits], or from a leading dot; an
     exponent sign without digits ends the number before the [e] *)
  let number i =
    let dot = ref false and exp = ref false and bad_exp = ref false in
    let rec go j =
      if j >= n then j
      else
        match src.[j] with
        | '0' .. '9' -> go (j + 1)
        | '.' when not (!dot || !exp) ->
          dot := true;
          go (j + 1)
        | ('e' | 'E') when not !exp ->
          if digit_at (j + 1) || (sign_at (j + 1) && digit_at (j + 2)) then begin
            exp := true;
            go (j + 2)
          end
          else begin
            bad_exp := sign_at (j + 1);
            j
          end
        | _ -> j
    in
    let stop = go i in
    let text = String.sub src i (stop - i) in
    let pos = pos_at i in
    (match if !dot || !exp then None else int_of_string_opt text with
    | Some k -> emit ~literal:(Ast.L_int k) ~start:i ~stop pos (Int_lit k)
    | None ->
      let f = float_of_string text in
      emit ~literal:(Ast.L_num (f, text)) ~start:i ~stop pos (Num_lit (f, text)));
    if !bad_exp then
      error stop
        (Printf.sprintf "exponent without digits in numeric literal %s"
           (String.sub src i (stop - i + 2)));
    stop
  in
  let rec loop i =
    if i >= n then emit ~start:n ~stop:n (pos_at n) Eof
    else
      match src.[i] with
      | '\n' ->
        newline_at i;
        loop (i + 1)
      | ' ' | '\t' | '\r' -> loop (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '-' ->
        let rec eol j = if j < n && src.[j] <> '\n' then eol (j + 1) else j in
        loop (eol i)
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
        let rec close j =
          if j >= n then None
          else if src.[j] = '*' && j + 1 < n && src.[j + 1] = '/' then Some (j + 2)
          else begin
            newline_at j;
            close (j + 1)
          end
        in
        (match close (i + 2) with
        | Some j -> loop j
        | None ->
          error n "unterminated block comment";
          loop n)
      | ('\'' | '"') as q ->
        let pos = pos_at i in
        let body, stop, closed = delimited i q in
        if q = '\'' then
          emit ~literal:(Ast.L_string body) ~start:i ~stop pos (String_lit body)
        else emit ~start:i ~stop pos (Quoted_ident body);
        if not closed then
          error stop
            (if q = '\'' then "unterminated string literal"
             else "unterminated quoted identifier");
        loop stop
      | c when is_digit c || (c = '.' && digit_at (i + 1)) -> loop (number i)
      | c when is_ident_start c ->
        let rec stop j = if j < n && is_ident_char src.[j] then stop (j + 1) else j in
        let stop = stop i in
        emit ~start:i ~stop (pos_at i) (Ident (String.sub src i (stop - i)));
        loop stop
      | c -> (
        match if i + 1 < n then punct2 c src.[i + 1] else None with
        | Some p ->
          emit ~start:i ~stop:(i + 2) (pos_at i) (Punct p);
          loop (i + 2)
        | None ->
          emit ~start:i ~stop:(i + 1) (pos_at i)
            (match punct1 c with
            | Some p -> Punct p
            | None -> Error (Printf.sprintf "unexpected character %C" c));
          loop (i + 1))
  in
  loop 0;
  List.rev !toks

let first_error toks =
  List.find_map
    (fun t -> match t.token with Error m -> Some (t.pos, m) | _ -> None)
    toks

