(** Synthetic catalog and data generation.

    Stands in for the enterprise sources behind the paper's deployment
    (reporting databases feeding Crystal Reports-style tools): a
    reproducible star schema of customers, orders, order lines and
    payments whose sizes are parameters, so benchmarks can sweep result
    cardinality. *)

type sizes = {
  customers : int;
  orders : int;
  lines_per_order : int;
  payments : int;
}

val tables : ?seed:int -> sizes -> Aqua_relational.Table.t list
(** CUSTOMERS, ORDERS, ORDERLINES, PAYMENTS with realistic value
    distributions and NULL fractions; deterministic for a seed. *)

val application :
  ?seed:int -> ?project:string -> sizes -> Aqua_dsp.Artifact.application
(** The same tables imported as physical data services (metadata
    import, paper Example 2). Project defaults to "Sales". *)

val wide_table :
  ?seed:int -> name:string -> columns:int -> rows:int -> unit ->
  Aqua_relational.Table.t
(** A table with [columns] VARCHAR/INTEGER columns for result-width
    sweeps (benchmark P1). *)
