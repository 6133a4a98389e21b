(* Injective composite-key encoding for group-by partitioning, shared
   by the tree-walking evaluator and the slot compiler.

   The old encoding joined [Atomic.hash_key] strings with "\x01"
   (between key expressions) and "\x02" (between atoms of one key),
   which collides as soon as a key atom contains a separator byte:
   ("a\x01b", "c") and ("a", "b\x01c") both encoded to
   "sa\x01b\x01sc"-style strings.  This encoding length-prefixes every
   atom key instead, so it decodes unambiguously:

     component := "e;"                        (empty key sequence)
                | (<decimal length> ":" <hash_key bytes>)+ ";"

   A decoder reads digits up to ':' then exactly that many bytes, so no
   byte of a hash key can be mistaken for structure; 'e' is not a
   digit, so the empty marker cannot be confused with a length. *)

module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item

(* One key expression's component, terminator included: a tuple's key
   is the concatenation of its components, so a component memoized per
   scan row (compile.ml's derived cell columns) splices in unchanged. *)
let add_component buf seq =
  (match Item.atomize seq with
  | [] -> Buffer.add_char buf 'e'
  | atoms ->
    List.iter
      (fun a ->
        let k = Atomic.hash_key a in
        Buffer.add_string buf (string_of_int (String.length k));
        Buffer.add_char buf ':';
        Buffer.add_string buf k)
      atoms);
  Buffer.add_char buf ';'

let component seq =
  let buf = Buffer.create 16 in
  add_component buf seq;
  Buffer.contents buf

let composite_into buf (key_values : Item.sequence list) : string =
  Buffer.clear buf;
  List.iter (add_component buf) key_values;
  Buffer.contents buf

let composite key_values = composite_into (Buffer.create 64) key_values
