"""The list-based leave-one-out split, kept as a test oracle for the packed
one in data.py.

Each pair holds lists sliced from the user's own lists (and the int objects
they hold), and a target taken from them as it is: the rule
``data.leave_one_out_split`` packs into one array per field. From the same
sequences both must give the same batches under the same generator.
"""

from novabert import data as D


def held_out(seq):
    """The pair that holds out seq's last item."""
    return D.EvalPair(seq.items[:-1],
                      {k: v[:-1] for k, v in seq.behavior.items()},
                      seq.items[-1])


def leave_one_out_split(sequences):
    """Per user: last item -> test, second-to-last -> validation, rest
    train; the training sequence is the validation prefix's lists."""
    train, validation, test = [], [], []
    for seq in sequences:
        test.append(held_out(seq))
        validation.append(held_out(test[-1]))
        train.append(D.TrainSequence(validation[-1].items,
                                     validation[-1].behavior))
    return D.SplitDataset(train, validation, test)
