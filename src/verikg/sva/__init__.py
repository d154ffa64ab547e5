"""Assertion-subset front end: parse, emit, bind, and compile property files."""
