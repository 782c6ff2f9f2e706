"""Print helper shared by the demos: scalars are spelled by Field.format,
inside the same tuple punctuation Python uses."""


def show(field, value):
    """A scalar, a vector or a nested tuple of them, as text."""
    if isinstance(value, (tuple, list)):
        parts = [show(field, x) for x in value]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    return field.format(value)
