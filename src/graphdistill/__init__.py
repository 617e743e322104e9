"""Condense attributed graphs into small synthetic training sets."""
