"""RTL front end: subset parser, design model, elaboration to a bit-level
transition system, FSM detection, and the coverage statement index."""
