"""The one exception type of the package."""


class NihopermError(ValueError):
    """Every refusal the package makes: an input outside a check's stated
    hypotheses or past a cap. A ValueError, so callers may catch either."""
