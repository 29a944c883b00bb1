"""End-to-end simulator benchmark (see README.md)."""
