"""Command line interface package (``repro-rta``)."""
