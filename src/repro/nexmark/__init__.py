"""NEXMark benchmark substrate (§5.1): synthetic event generator, and Q1–Q8
implemented both as hand-written ("native") dataflow operators and via
Megaphone's stateful operator interface, with the Table 1 LOC analysis and
the migration experiment."""
