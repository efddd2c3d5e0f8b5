"""Exact combinatorics of finitely supported injection-monoid actions,
box products, and diagrams over finite sets and injections."""
