(* SQL normalizer + FNV-1a digest, and the driver's plan key, read off
   the SQL lexer's tokens.  The lexer never raises, so statements the
   parser rejects still fingerprint and errors aggregate by shape.  One
   pass over the tokens produces the shape's token list, the plan key
   and the literal vector; a second tiny pass collapses literal
   IN-lists in the shape. *)

module L = Aqua_sql.Lexer

type literal = {
  cls : char;
  text : string;
  pos : int;
  len : int;
  value : Aqua_sql.Ast.literal;
}

(* A quoted identifier's shape tokens: its value split at each quote,
   each piece quoted, so ["a""b"] reads as ["a"] ["b"]; an
   unterminated one (its token is one byte shorter) leaves the last
   piece open. *)
let quoted_segments value ~len push =
  let pieces = String.split_on_char '"' value in
  let closed = len = String.length value + List.length pieces + 1 in
  let last = List.length pieces - 1 in
  List.iteri
    (fun k p -> push (if closed || k < last then "\"" ^ p ^ "\"" else "\"" ^ p))
    pieces

(* The shape's tokens: identifiers case-folded, literals as [?], an
   error token as the text it covers. *)
let shape_token sql push (t : L.located) =
  match t.L.token with
  | L.Ident s ->
    (* most SQL is upper case already: keep the token's string *)
    push
      (if String.exists (fun c -> c >= 'a' && c <= 'z') s then
         String.uppercase_ascii s
       else s)
  | L.Quoted_ident s -> quoted_segments s ~len:t.L.len push
  | L.Int_lit _ | L.Num_lit _ | L.String_lit _ -> push "?"
  | L.Punct p -> push p
  | L.Error _ -> if t.L.len > 0 then push (String.sub sql t.L.offset t.L.len)
  | L.Eof -> ()

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
  (match toks with
  | [] -> ()
  | first :: rest ->
    Buffer.add_string buf first;
    ignore
      (List.fold_left
         (fun prev t ->
           if not (no_space_before t || no_space_after prev) then
             Buffer.add_char buf ' ';
           Buffer.add_string buf t;
           t)
         first rest));
  Buffer.contents buf

(* the shape of its tokens, given last first *)
let shape_of_tokens rev_toks = assemble (collapse_in_lists (List.rev rev_toks))

(* FNV-1a, 64-bit *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* a loop, not [String.iter]: a closure would box [h] at every byte *)
let digest_of_normalized s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  Printf.sprintf "%016Lx" !h

let normalize sql =
  let toks = ref [] in
  List.iter (shape_token sql (fun t -> toks := t :: !toks)) (L.tokens sql);
  shape_of_tokens !toks

let fingerprint sql =
  let n = normalize sql in
  (digest_of_normalized n, n)

let digest sql = fst (fingerprint sql)

type key = {
  digest : string;
  shape : string;
  plan : string option;
  literals : literal array;
  tokens : L.located list;
}

let key sql =
  let tokens = L.tokens sql in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  (* tokens as written, one space apart: unambiguous, as no token but
     a quoted identifier holds a space and that one ends at the first
     quote not doubled *)
  let plan = Buffer.create (String.length sql + 16) in
  let keyed = ref true in
  let lits = ref [] in
  List.iter
    (fun (t : L.located) ->
      shape_token sql push t;
      match (t.L.token, t.L.literal) with
      | L.Error _, _ -> keyed := false
      | L.Eof, _ -> ()
      | token, Some value ->
        let cls =
          match token with
          | L.Int_lit _ -> 'i'
          | L.String_lit _ -> 's'
          | L.Num_lit (_, s) when String.contains s 'e' || String.contains s 'E'
            ->
            'e'
          | _ -> 'n'
        in
        let text =
          match token with
          | L.String_lit s | L.Num_lit (_, s) -> s
          | _ -> String.sub sql t.L.offset t.L.len
        in
        Buffer.add_string plan " ?";
        Buffer.add_char plan cls;
        lits := { cls; text; pos = t.L.offset; len = t.L.len; value } :: !lits
      | _, None ->
        Buffer.add_char plan ' ';
        Buffer.add_substring plan sql t.L.offset t.L.len)
    tokens;
  let shape = shape_of_tokens !toks in
  {
    digest = digest_of_normalized shape;
    shape;
    plan = (if !keyed then Some (Buffer.contents plan) else None);
    literals = Array.of_list (List.rev !lits);
    tokens;
  }
