namespace pcon::os {

class PCON_SHARD_OWNED Kernel
{
    int ticks_ = 0;
    struct Stats
    {
        int n_ = 0;
    };
};

class Orphan
{
    int x_ = 0;
};

}  // namespace pcon::os
