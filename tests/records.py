"""``replaced(record, **changes)``: a copy of a value record with some
fields changed, built by its constructor from the fields it names in
``__match_args__``, as ``dataclasses.replace`` builds one."""


def replaced(record, **changes):
    unknown = set(changes) - set(record.__match_args__)
    if unknown:
        raise TypeError(f"{type(record).__name__} has no fields {sorted(unknown)}")
    fields = {f: getattr(record, f) for f in record.__match_args__}
    return type(record)(**{**fields, **changes})
