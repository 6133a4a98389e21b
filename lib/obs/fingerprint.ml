(* Lexical SQL normalizer + FNV-1a digest, and the driver's plan key.
   This deliberately does not reuse the SQL parser: fingerprinting must
   work on statements the parser rejects (so errors aggregate by
   shape), and must not care about grammar details.  One left-to-right
   pass produces the shape's token list, the plan key and the literal
   vector; a second tiny pass collapses literal IN-lists in the shape. *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$'
let is_digit c = c >= '0' && c <= '9'

(* Two-character operators that must stay one token. *)
let two_char_ops = [ "<="; ">="; "<>"; "!="; "||" ]

type literal = { cls : char; text : string; pos : int; len : int }

type scan = {
  shape_toks : string list;
  plan : string option;
  literals : literal array;
}

(* The plan key follows the SQL lexer's token boundaries exactly, so
   two texts with one key lex to the same tokens but for the values of
   same-class literals.  Where the lexer would reject the text (an
   unterminated string, quoted identifier or block comment, or an
   exponent sign without digits) there is no key. *)
let scan sql =
  let n = String.length sql in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  (* tokens as written, one space apart: unambiguous, as no token but
     a quoted identifier holds a space and that one ends at the first
     quote not doubled *)
  let plan = Buffer.create (n + 16) in
  let plan_span start stop =
    Buffer.add_char plan ' ';
    Buffer.add_substring plan sql start (stop - start)
  in
  let keyed = ref true in
  let lits = ref [] in
  let i = ref 0 in
  let literal cls text ~pos =
    push "?";
    Buffer.add_string plan " ?";
    Buffer.add_char plan cls;
    lits := { cls; text; pos; len = !i - pos } :: !lits
  in
  while !i < n do
    let c = sql.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && sql.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && sql.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && sql.[!i + 1] = '*' then begin
      (* block comment (unterminated: swallow the rest) *)
      i := !i + 2;
      let fin = ref false in
      while not !fin && !i < n do
        if sql.[!i] = '*' && !i + 1 < n && sql.[!i + 1] = '/' then begin
          i := !i + 2;
          fin := true
        end
        else incr i
      done;
      if not !fin then keyed := false
    end
    else if c = '\'' then begin
      (* string literal, '' escapes; unterminated swallows the rest *)
      let pos = !i in
      incr i;
      let escaped = ref false in
      let fin = ref false in
      while not !fin && !i < n do
        if sql.[!i] = '\'' then
          if !i + 1 < n && sql.[!i + 1] = '\'' then begin
            escaped := true;
            i := !i + 2
          end
          else begin
            incr i;
            fin := true
          end
        else incr i
      done;
      if not !fin then keyed := false;
      let body = String.sub sql (pos + 1) (!i - pos - if !fin then 2 else 1) in
      let text =
        if !escaped then
          String.concat "'" (List.filteri (fun k _ -> k mod 2 = 0)
            (String.split_on_char '\'' body))
        else body
      in
      literal 's' text ~pos
    end
    else if c = '"' then begin
      (* quoted identifier: kept verbatim, case preserved.  The shape
         ends it at the next quote; the lexer (and so the plan key)
         reads [""] as an escaped quote and goes on. *)
      let start = !i in
      let fin = ref false in
      while not !fin do
        let seg = !i in
        incr i;
        while !i < n && sql.[!i] <> '"' do incr i done;
        if !i < n then incr i else keyed := false;
        push (String.sub sql seg (!i - seg));
        if not (!i < n && sql.[!i] = '"') then fin := true
      done;
      plan_span start !i
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit sql.[!i + 1])
    then begin
      (* numeric literal: digits [. digits] [eE [+-] digits] *)
      let start = !i in
      let dot = ref false and exp = ref false in
      while !i < n && is_digit sql.[!i] do incr i done;
      if !i < n && sql.[!i] = '.' then begin
        dot := true;
        incr i;
        while !i < n && is_digit sql.[!i] do incr i done
      end;
      if !i < n && (sql.[!i] = 'e' || sql.[!i] = 'E') then begin
        let j = !i + 1 in
        let signed = j < n && (sql.[j] = '+' || sql.[j] = '-') in
        let j = if signed then j + 1 else j in
        if j < n && is_digit sql.[j] then begin
          exp := true;
          i := j;
          while !i < n && is_digit sql.[!i] do incr i done
        end
        else if signed then
          (* the lexer takes the sign into the number and fails *)
          keyed := false
      end;
      let text = String.sub sql start (!i - start) in
      let cls =
        if !exp then 'e'
        else if !dot then 'n'
        else if int_of_string_opt text <> None then 'i'
        else 'n'
      in
      literal cls text ~pos:start
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char sql.[!i] do incr i done;
      push (String.uppercase_ascii (String.sub sql start (!i - start)));
      plan_span start !i
    end
    else begin
      let start = !i in
      let two =
        if !i + 1 < n then Some (String.sub sql !i 2) else None
      in
      (match two with
      | Some op when List.mem op two_char_ops ->
        push op;
        i := !i + 2
      | _ ->
        push (String.make 1 c);
        incr i);
      plan_span start !i
    end
  done;
  {
    shape_toks = List.rev !toks;
    plan = (if !keyed then Some (Buffer.contents plan) else None);
    literals = Array.of_list (List.rev !lits);
  }

let tokens sql = (scan sql).shape_toks

(* [IN ( ? , ? , ... ? )] -> [IN ( ? )]: the arity of a literal
   IN-list is workload noise, not query shape. *)
let rec collapse_in_lists = function
  | "IN" :: "(" :: "?" :: rest -> (
    let rec eat = function
      | "," :: "?" :: r -> eat r
      | ")" :: r -> Some r
      | _ -> None
    in
    match eat rest with
    | Some r -> "IN" :: "(" :: "?" :: ")" :: collapse_in_lists r
    | None -> "IN" :: "(" :: "?" :: collapse_in_lists rest)
  | tok :: rest -> tok :: collapse_in_lists rest
  | [] -> []

(* Spacing: single separators, but punctuation hugs its operand — no
   space before commas, dots or parens and none after an opening paren
   or dot — so shapes read like [COUNT(STAR)] and [IN(?)]. *)
let assemble toks =
  let buf = Buffer.create 128 in
  let no_space_before t = t = "," || t = ")" || t = "." || t = "(" in
  let no_space_after t = t = "(" || t = "." in
  let prev = ref None in
  List.iter
    (fun t ->
      (match !prev with
      | Some p when not (no_space_before t) && not (no_space_after p) ->
        Buffer.add_char buf ' '
      | _ -> ());
      Buffer.add_string buf t;
      prev := Some t)
    toks;
  Buffer.contents buf

let normalize sql = assemble (collapse_in_lists (tokens sql))

(* FNV-1a, 64-bit *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let digest_of_normalized s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  Printf.sprintf "%016Lx" !h

let normalize_and_digest sql =
  let n = normalize sql in
  (digest_of_normalized n, n)

let digest sql = fst (normalize_and_digest sql)
let fingerprint = normalize_and_digest

type key = {
  digest : string;
  shape : string;
  plan : string option;
  literals : literal array;
}

let key sql =
  let s = scan sql in
  let shape = assemble (collapse_in_lists s.shape_toks) in
  { digest = digest_of_normalized shape; shape; plan = s.plan;
    literals = s.literals }
